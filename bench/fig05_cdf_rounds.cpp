// Figure 5 of the paper (simulation): CDF — the average percentage of
// correct processes that have received M by each round, n = 1000, under
// (a) alpha=10%, x=128 and (b) alpha=40%, x=128. Push plateaus after
// reaching the non-attacked processes; Pull ramps slowly (source escape);
// Drum dominates both.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n = static_cast<std::size_t>(flags.get_int("n", 1000, "group size"));
  auto max_round = static_cast<std::size_t>(
      flags.get_int("rounds", 30, "rounds shown in the CDF"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 5",
                      "CDF: average % of correct processes holding M per "
                      "round, n=1000 (simulations)");

  struct Config {
    const char* title;
    double alpha, x;
  } configs[] = {{"Figure 5(a): alpha=10%, x=128", 0.1, 128},
                 {"Figure 5(b): alpha=40%, x=128", 0.4, 128}};

  for (const auto& c : configs) {
    std::vector<std::vector<double>> curves;
    for (auto proto : {core::Variant::kDrum, core::Variant::kPush,
                       core::Variant::kPull}) {
      auto agg = bench::sim_point(proto, n, c.alpha, c.x, runs, seed,
                                  std::max<std::size_t>(max_round, 300), 0.0,
                                  0.1, opts);
      curves.push_back(agg.coverage.average());
    }
    util::Table t({"round", "drum %", "push %", "pull %"});
    for (std::size_t r = 0; r <= max_round; ++r) {
      std::vector<double> row{static_cast<double>(r)};
      for (const auto& curve : curves) {
        double v = r < curve.size() ? curve[r]
                                    : (curve.empty() ? 0.0 : curve.back());
        row.push_back(v * 100);
      }
      t.add_row(row, 1);
    }
    t.print(c.title);
  }
  return 0;
}
