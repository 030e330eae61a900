// Figure 2 of the paper (simulation, no DoS attack):
//  (a) average propagation time to 99% of processes vs group size
//      (logarithmic growth — classic gossip result [25,14]);
//  (b) propagation time vs % of crashed processes, n = 1000
//      (graceful degradation [13,17]).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto big_n = static_cast<std::size_t>(
      flags.get_int("crash-n", 1000, "group size for Fig. 2(b)"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 2",
                      "validation without DoS: log(n) growth + crash "
                      "tolerance (simulations)");

  const core::Variant protos[] = {core::Variant::kDrum, core::Variant::kPush,
                                  core::Variant::kPull};

  util::Table a({"n", "drum", "push", "pull"});
  for (std::size_t n : {40u, 80u, 120u, 250u, 500u, 1000u}) {
    std::vector<double> row{static_cast<double>(n)};
    for (auto proto : protos) {
      auto agg = bench::sim_point(proto, n, 0, 0, runs, seed, 300, 0, 0, opts);
      row.push_back(agg.rounds_to_target.mean());
    }
    a.add_row(row, 2);
  }
  a.print("Figure 2(a): propagation time vs n, failure-free (rounds)");

  util::Table b({"% crashed", "drum", "push", "pull"});
  for (double crashed : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    std::vector<double> row{crashed * 100};
    for (auto proto : protos) {
      auto agg =
          bench::sim_point(proto, big_n, 0, 0, runs, seed, 300, crashed, 0,
                           opts);
      row.push_back(agg.rounds_to_target.mean());
    }
    b.add_row(row, 2);
  }
  b.print("Figure 2(b): propagation time vs % crashed, n=" +
          std::to_string(big_n) + " (rounds)");
  return 0;
}
