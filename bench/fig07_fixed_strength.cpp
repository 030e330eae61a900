// Figure 7 of the paper (simulation): fixed total attack strength
// B = x * alpha * n, varying how broadly the adversary spreads it.
//  (a) B = 7.2n, n = 120;  (b) B = 36n, n = 500.
// Against Drum, concentrating on few processes does NOT pay off (Lemma 2:
// propagation time increases with alpha); against Push/Pull, concentration
// is devastating. All protocols meet at the rightmost point (everyone
// attacked).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 7",
                      "fixed-strength attacks: who should the adversary "
                      "target? (simulations)");

  struct Config {
    const char* title;
    std::size_t n;
    double b_per_n;  // B / n
  } configs[] = {{"Figure 7(a): B=7.2n, n=120", 120, 7.2},
                 {"Figure 7(b): B=36n, n=500", 500, 36.0}};

  for (const auto& c : configs) {
    util::Table t({"alpha %", "x", "drum", "push", "pull"});
    // alpha up to 0.9: 10% of members are the (malicious) attackers.
    for (double alpha : {0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
      double x = c.b_per_n / alpha;
      std::vector<double> row{alpha * 100, x};
      for (auto proto : {core::Variant::kDrum, core::Variant::kPush,
                         core::Variant::kPull}) {
        auto agg = bench::sim_point(proto, c.n, alpha, x, runs, seed, 900, 0.0,
                                    0.1, opts);
        row.push_back(agg.rounds_to_target.mean());
      }
      t.add_row(row, 2);
    }
    t.print(c.title);
  }
  return 0;
}
