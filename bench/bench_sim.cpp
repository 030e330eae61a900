// Thread-scaling benchmark of the parallel Monte-Carlo engine (DESIGN.md §9)
// on the paper's Figure 3 workload: the full 3(a) x-sweep and 3(b)
// alpha-sweep for Drum/Push/Pull at one group size. For each thread count in
// --sweep it runs the whole workload, times it, and verifies that every
// point's AggregateResult is BIT-IDENTICAL to the first (reference) thread
// count — the determinism contract the engine guarantees. Emits a JSON
// artifact (results/BENCH_sim.json in the committed tree) with wall-clock,
// speedup, and the pool's obs telemetry; --check makes any aggregate
// mismatch a non-zero exit (the CI sim-bench job runs that mode).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "drum/obs/export.hpp"
#include "drum/obs/metrics.hpp"

namespace {

using namespace drum;

// The Figure 3 grids: 3(a) x in {0,32,64,96,128} at alpha=10%, 3(b) alpha in
// {10..80%} at x=128; each for drum/push/pull.
std::vector<sim::AggregateResult> run_workload(std::size_t n,
                                               std::size_t runs,
                                               std::uint64_t seed,
                                               const sim::SimOptions& opt) {
  const core::Variant protos[] = {core::Variant::kDrum, core::Variant::kPush,
                                  core::Variant::kPull};
  std::vector<sim::AggregateResult> points;
  for (double x : {0.0, 32.0, 64.0, 96.0, 128.0}) {
    for (auto proto : protos) {
      points.push_back(
          bench::sim_point(proto, n, 0.1, x, runs, seed, 600, 0.0, 0.1, opt));
    }
  }
  for (double alpha : {0.1, 0.2, 0.4, 0.6, 0.8}) {
    for (auto proto : protos) {
      points.push_back(bench::sim_point(proto, n, alpha, 128, runs, seed, 600,
                                        0.0, 0.1, opt));
    }
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n = static_cast<std::size_t>(
      flags.get_int("n", 120, "group size for the Fig. 3 workload"));
  auto sweep = flags.get_size_list(
      "sweep", "1,2,4,8", "comma-separated thread counts to benchmark");
  auto json_path =
      flags.get_string("json", "BENCH_sim.json", "output artifact path");
  bool check = flags.get_bool(
      "check", false,
      "exit non-zero if any thread count's aggregates differ from the "
      "first's (CI determinism gate)");
  flags.done();

  bench::print_header("BENCH_sim",
                      "parallel sim engine: Fig. 3 workload thread sweep "
                      "(aggregates must be identical at every thread count)");
  std::printf("# workload: n=%zu, runs/point=%zu, seed=%llu, 30 points\n",
              n, runs, static_cast<unsigned long long>(seed));
  std::printf("# host: %u hardware thread(s)\n",
              std::thread::hardware_concurrency());

  std::vector<sim::AggregateResult> reference;
  double ref_ms = 0.0;
  bool all_match = true;
  std::string rows;

  util::Table t({"threads", "wall ms", "speedup", "identical", "trial us p50",
                 "trial us p99"});
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    sim::SimOptions opt;
    opt.threads = sweep[i];
    obs::MetricsRegistry reg;
    opt.metrics = &reg;

    const auto t0 = std::chrono::steady_clock::now();
    auto points = run_workload(n, runs, seed, opt);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    bool match = true;
    if (i == 0) {
      reference = points;
      ref_ms = ms;
    } else {
      match = points == reference;
      all_match = all_match && match;
    }
    const double speedup = ms > 0 ? ref_ms / ms : 0.0;
    const double p50 = reg.histogram_quantile("sim.trial_us", 0.5);
    const double p99 = reg.histogram_quantile("sim.trial_us", 0.99);
    t.add_row({static_cast<double>(sweep[i]), ms, speedup,
               match ? 1.0 : 0.0, p50, p99},
              2);

    char row[512];
    std::snprintf(
        row, sizeof row,
        "    {\"threads\": %zu, \"wall_ms\": %.1f, \"speedup_vs_first\": "
        "%.3f, \"aggregates_match_reference\": %s, \"trials\": %llu, "
        "\"chunks\": %llu, \"trial_us_mean\": %.1f, \"trial_us_p50\": %.1f, "
        "\"trial_us_p99\": %.1f}",
        sweep[i], ms, speedup, match ? "true" : "false",
        static_cast<unsigned long long>(reg.counter_value("sim.trials")),
        static_cast<unsigned long long>(reg.counter_value("sim.chunks")),
        reg.histogram_mean("sim.trial_us"), p50, p99);
    if (!rows.empty()) rows += ",\n";
    rows += row;
  }
  t.print("Fig. 3 workload, wall-clock per thread count");

  char head[512];
  std::snprintf(
      head, sizeof head,
      "{\n  \"benchmark\": \"sim_fig3_thread_sweep\",\n"
      "  \"workload\": {\"n\": %zu, \"runs_per_point\": %zu, \"seed\": %llu, "
      "\"points\": 30},\n"
      "  \"host_hardware_threads\": %u,\n"
      "  \"all_aggregates_identical\": %s,\n  \"sweep\": [\n",
      n, runs, static_cast<unsigned long long>(seed),
      std::thread::hardware_concurrency(), all_match ? "true" : "false");
  std::string json = std::string(head) + rows + "\n  ]\n}\n";
  if (obs::write_text_file(json_path, json)) {
    std::printf("# artifact: %s\n", json_path.c_str());
  } else {
    std::printf("# WARNING: could not write %s\n", json_path.c_str());
  }

  if (!all_match) {
    std::fprintf(stderr,
                 "bench_sim: DETERMINISM VIOLATION — aggregates differ "
                 "across thread counts\n");
    if (check) return 1;
  }
  return 0;
}
