// Figure 4 of the paper (simulation): the standard deviation of the
// propagation times behind Figure 3, n = 1000. Drum's STD stays flat in x;
// Push's grows linearly; Pull's is much larger than both — dominated by the
// geometric rounds-to-leave-the-attacked-source (§7.2, Appendix B).
#include "bench_common.hpp"

#include "drum/analysis/appendix_b.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n = static_cast<std::size_t>(flags.get_int("n", 1000, "group size"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 4",
                      "STD of propagation time under targeted attacks, "
                      "n=1000 (simulations)");

  const core::Variant protos[] = {core::Variant::kDrum, core::Variant::kPush,
                                  core::Variant::kPull};

  util::Table a({"x", "drum", "push", "pull", "pull escape STD (App. B)"});
  for (double x : {0.0, 32.0, 64.0, 96.0, 128.0}) {
    std::vector<double> row{x};
    for (auto proto : protos) {
      auto agg = bench::sim_point(proto, n, 0.1, x, runs, seed, 600, 0.0, 0.1, opts);
      row.push_back(agg.rounds_to_target.stddev());
    }
    row.push_back(x > 0 ? analysis::pull_std_rounds_to_leave_source(n, 4, x)
                        : 0.0);
    a.add_row(row, 2);
  }
  a.print("Figure 4(a): STD vs x, alpha=10% (rounds)");

  util::Table b({"alpha %", "drum", "push", "pull"});
  for (double alpha : {0.1, 0.2, 0.4, 0.6, 0.8}) {
    std::vector<double> row{alpha * 100};
    for (auto proto : protos) {
      auto agg = bench::sim_point(proto, n, alpha, 128, runs, seed, 600, 0.0, 0.1,
                                    opts);
      row.push_back(agg.rounds_to_target.stddev());
    }
    b.add_row(row, 2);
  }
  b.print("Figure 4(b): STD vs alpha, x=128 (rounds)");
  return 0;
}
