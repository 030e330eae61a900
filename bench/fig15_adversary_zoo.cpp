// The adversary zoo (DESIGN.md §10) — beyond the paper's flooder.
//
// Every registered drum::adversary strategy runs against {Drum, Push, Pull,
// Drum+scoring} over an x sweep, reporting propagation time split into
// attacked and non-attacked populations (the paper's Fig. 6 axes) plus the
// scoring layer's greylist activity. The artifact
// (results/BENCH_adversary.json in the committed tree) is the quantitative
// record of whether peer scoring helps, per attack: insider attacks
// (pull-amplify, eclipse) should improve measurably, pure spoofed floods
// should not (nothing to attribute).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "drum/adversary/adversary.hpp"
#include "drum/obs/export.hpp"

namespace {

struct Mode {
  const char* name;
  drum::core::Variant protocol;
  bool scoring;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 30, "simulation runs per point"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n = static_cast<std::size_t>(flags.get_int("n", 250, "group size"));
  auto max_rounds = static_cast<std::size_t>(
      flags.get_int("max-rounds", 600, "simulation horizon"));
  auto alpha = flags.get_double("alpha", 0.1, "attacked fraction");
  auto malicious =
      flags.get_double("malicious", 0.1, "colluding-insider fraction");
  auto json_path = flags.get_string("json", "results/BENCH_adversary.json",
                                    "output artifact path");
  auto only = flags.get_string(
      "strategy", "", "run a single strategy (default: all registered)");
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Adversary zoo",
                      "every registered strategy x {drum, push, pull, "
                      "drum+scoring}, attacked vs non-attacked propagation");

  std::vector<std::string> strategies =
      only.empty() ? adversary::registered()
                   : std::vector<std::string>{only};
  const Mode modes[] = {
      {"drum", core::Variant::kDrum, false},
      {"push", core::Variant::kPush, false},
      {"pull", core::Variant::kPull, false},
      {"drum+scoring", core::Variant::kDrum, true},
  };
  const double xs[] = {32.0, 64.0, 128.0};

  std::string rows;
  for (const auto& strat : strategies) {
    for (double x : xs) {
      for (const Mode& m : modes) {
        sim::SimParams p;
        p.protocol = m.protocol;
        p.n = n;
        p.alpha = alpha;
        p.malicious_fraction = malicious;
        p.max_rounds = max_rounds;
        p.attack.strategy = strat;
        p.attack.params.x = x;
        p.scoring.enabled = m.scoring;
        const auto agg = sim::simulate_many(p, runs, seed, opts);
        const double att = agg.rounds_to_target_attacked.mean();
        const double non = agg.rounds_to_target_non_attacked.mean();
        const double grey = agg.greylist_entries.mean();
        char row[512];
        std::snprintf(
            row, sizeof row,
            "    {\"strategy\": \"%s\", \"mode\": \"%s\", \"x\": %.0f, "
            "\"attacked_rounds_mean\": %.3f, \"attacked_rounds_std\": %.3f, "
            "\"non_attacked_rounds_mean\": %.3f, "
            "\"non_attacked_rounds_std\": %.3f, \"unreached_runs\": %zu, "
            "\"greylist_entries_mean\": %.2f}",
            strat.c_str(), m.name, x, att,
            agg.rounds_to_target_attacked.stddev(), non,
            agg.rounds_to_target_non_attacked.stddev(), agg.unreached_runs,
            grey);
        if (!rows.empty()) rows += ",\n";
        rows += row;
        std::printf("%-14s x=%-4.0f %-13s attacked=%7.2f non=%7.2f "
                    "unreached=%zu grey=%.1f\n",
                    strat.c_str(), x, m.name, att, non, agg.unreached_runs,
                    grey);
      }
    }
  }

  char head[512];
  std::snprintf(head, sizeof head,
                "{\n  \"benchmark\": \"adversary_zoo\",\n"
                "  \"workload\": {\"n\": %zu, \"runs_per_point\": %zu, "
                "\"seed\": %llu, \"alpha\": %.3f, \"malicious\": %.3f, "
                "\"max_rounds\": %zu},\n  \"points\": [\n",
                n, runs, static_cast<unsigned long long>(seed), alpha,
                malicious, max_rounds);
  std::string json = std::string(head) + rows + "\n  ]\n}\n";
  if (obs::write_text_file(json_path, json)) {
    std::printf("# artifact: %s\n", json_path.c_str());
  } else {
    std::printf("# WARNING: could not write %s\n", json_path.c_str());
  }
  return 0;
}
