// Figure 3 of the paper (simulation) — the headline result:
//  (a) propagation time vs attack strength x, with 10% of the processes
//      attacked: Push and Pull grow linearly in x (Corollaries 1-2) while
//      Drum stays flat (Lemma 1);
//  (b) propagation time vs the attacked fraction alpha at x = 128: all
//      protocols degrade as the attack broadens, but Drum remains far
//      faster until the attack covers everyone.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  bool small_only =
      flags.get_bool("small-only", false, "skip the n=1000 sweeps");
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 3",
                      "targeted DoS attacks: propagation time vs x and vs "
                      "alpha (simulations)");

  const core::Variant protos[] = {core::Variant::kDrum, core::Variant::kPush,
                                  core::Variant::kPull};
  std::vector<std::size_t> sizes = {120};
  if (!small_only) sizes.push_back(1000);

  for (std::size_t n : sizes) {
    util::Table a({"x", "drum", "push", "pull"});
    for (double x : {0.0, 32.0, 64.0, 96.0, 128.0}) {
      std::vector<double> row{x};
      for (auto proto : protos) {
        auto agg = bench::sim_point(proto, n, 0.1, x, runs, seed, 600, 0.0, 0.1, opts);
        row.push_back(agg.rounds_to_target.mean());
      }
      a.add_row(row, 2);
    }
    a.print("Figure 3(a): propagation time vs x, alpha=10%, n=" +
            std::to_string(n) + " (rounds)");

    util::Table b({"alpha %", "drum", "push", "pull"});
    for (double alpha : {0.1, 0.2, 0.4, 0.6, 0.8}) {
      std::vector<double> row{alpha * 100};
      for (auto proto : protos) {
        auto agg = bench::sim_point(proto, n, alpha, 128, runs, seed, 600, 0.0, 0.1,
                                    opts);
        row.push_back(agg.rounds_to_target.mean());
      }
      b.add_row(row, 2);
    }
    b.print("Figure 3(b): propagation time vs alpha, x=128, n=" +
            std::to_string(n) + " (rounds)");
  }
  return 0;
}
