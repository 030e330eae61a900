// Figure 13 of the paper: the detailed numerical analysis (Appendix C)
// against the simulation, without DoS attacks, n = 1000:
//  (a) failure-free;  (b) 10% of the processes crashed.
// The two curves should be nearly identical per protocol.
#include "bench_common.hpp"

#include "drum/analysis/appendix_c.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n = static_cast<std::size_t>(flags.get_int("n", 1000, "group size"));
  auto max_round = static_cast<std::size_t>(
      flags.get_int("rounds", 15, "rounds shown in the CDFs"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header(
      "Figure 13",
      "Appendix C analysis vs simulation, no attack, n=1000 (CDFs)");

  struct Config {
    const char* title;
    double crashed;
  } configs[] = {{"Figure 13(a): failure-free", 0.0},
                 {"Figure 13(b): 10% crashed", 0.1}};

  struct Proto {
    const char* name;
    core::Variant sim;
    analysis::Protocol ana;
  } protos[] = {{"drum", core::Variant::kDrum, analysis::Protocol::kDrum},
                {"push", core::Variant::kPush, analysis::Protocol::kPush},
                {"pull", core::Variant::kPull, analysis::Protocol::kPull}};

  for (const auto& c : configs) {
    std::vector<std::vector<double>> sim_curves, ana_curves;
    for (const auto& p : protos) {
      auto agg = bench::sim_point(p.sim, n, 0, 0, runs, seed, 300,
                                  c.crashed, 0.0, opts);
      sim_curves.push_back(agg.coverage.average());

      analysis::DetailedParams dp;
      dp.protocol = p.ana;
      dp.n = n;
      dp.b = static_cast<std::size_t>(c.crashed * static_cast<double>(n));
      ana_curves.push_back(analysis::expected_coverage(dp, max_round));
    }
    util::Table t({"round", "drum ana %", "drum sim %", "push ana %",
                   "push sim %", "pull ana %", "pull sim %"});
    for (std::size_t r = 0; r <= max_round; ++r) {
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
