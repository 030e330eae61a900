// Figure 8 of the paper (simulation): Drum under weak fixed-strength
// attacks, B in {0, 0.9n, 1.8n, 3.6n} (c = 0.25/0.5/1), n = 120. Such
// attacks barely move Drum's propagation time for any targeting choice.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 200, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n = static_cast<std::size_t>(flags.get_int("n", 120, "group size"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 8",
                      "weak fixed-strength attacks on Drum (simulations)");

  util::Table t({"alpha %", "B=0", "B=0.9n", "B=1.8n", "B=3.6n"});
  for (double alpha : {0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    std::vector<double> row{alpha * 100};
    for (double b_per_n : {0.0, 0.9, 1.8, 3.6}) {
      double x = b_per_n > 0 ? b_per_n / alpha : 0.0;
      auto agg = bench::sim_point(core::Variant::kDrum, n, alpha, x, runs,
                                  seed, 600, 0.0, 0.1, opts);
      row.push_back(agg.rounds_to_target.mean());
    }
    t.add_row(row, 2);
  }
  t.print("Figure 8: Drum propagation time, weak attacks, n=" +
          std::to_string(n) + " (rounds)");
  return 0;
}
