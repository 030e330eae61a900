// Figure 14 of the paper: the detailed numerical analysis (Appendix C,
// §C.2.2 two-population recursion) against the simulation under DoS
// attacks, n = 120, 10% malicious members:
//  (a-c) alpha=10%, x in {32, 64, 128};  (d-f) x=128, alpha in {40,60,80}%.
#include "bench_common.hpp"

#include "drum/analysis/appendix_c.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 200, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n = static_cast<std::size_t>(flags.get_int("n", 120, "group size"));
  auto max_round = static_cast<std::size_t>(
      flags.get_int("rounds", 30, "rounds shown in the CDFs"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header(
      "Figure 14",
      "Appendix C analysis vs simulation under DoS, n=120 (CDFs)");

  struct Config {
    const char* title;
    double alpha, x;
  } configs[] = {{"Figure 14(a): alpha=10%, x=32", 0.1, 32},
                 {"Figure 14(b): alpha=10%, x=64", 0.1, 64},
                 {"Figure 14(c): alpha=10%, x=128", 0.1, 128},
                 {"Figure 14(d): alpha=40%, x=128", 0.4, 128},
                 {"Figure 14(e): alpha=60%, x=128", 0.6, 128},
                 {"Figure 14(f): alpha=80%, x=128", 0.8, 128}};

  struct Proto {
    const char* name;
    core::Variant sim;
    analysis::Protocol ana;
  } protos[] = {{"drum", core::Variant::kDrum, analysis::Protocol::kDrum},
                {"push", core::Variant::kPush, analysis::Protocol::kPush},
                {"pull", core::Variant::kPull, analysis::Protocol::kPull}};

  const auto b = static_cast<std::size_t>(0.1 * static_cast<double>(n));

  for (const auto& c : configs) {
    std::vector<std::vector<double>> sim_curves, ana_curves;
    for (const auto& p : protos) {
      auto agg = bench::sim_point(p.sim, n, c.alpha, c.x, runs, seed, 600, 0.0,
                                  0.1, opts);
      sim_curves.push_back(agg.coverage.average());

      analysis::DetailedParams dp;
      dp.protocol = p.ana;
      dp.n = n;
      dp.b = b;
      dp.alpha = c.alpha;
      dp.x = c.x;
      ana_curves.push_back(analysis::expected_coverage(dp, max_round));
    }
    util::Table t({"round", "drum ana %", "drum sim %", "push ana %",
                   "push sim %", "pull ana %", "pull sim %"});
    for (std::size_t r = 0; r <= max_round; r += (max_round > 40 ? 2 : 1)) {
      std::vector<double> row{static_cast<double>(r)};
      for (int i = 0; i < 3; ++i) {
        auto at = [&](const std::vector<double>& v) {
          return r < v.size() ? v[r] : (v.empty() ? 0.0 : v.back());
        };
        row.push_back(at(ana_curves[i]) * 100);
        row.push_back(at(sim_curves[i]) * 100);
      }
      t.add_row(row, 1);
    }
    t.print(c.title);
  }
  return 0;
}
