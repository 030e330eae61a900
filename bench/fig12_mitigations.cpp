// Figure 12 of the paper — the §9 ablations of Drum's two remaining
// DoS-mitigation techniques:
//  (a) random ports (simulation, n=1000): Drum vs a variant whose
//      pull-replies arrive on a well-known port the adversary also floods —
//      the variant's propagation time grows linearly in x, real Drum stays
//      flat;
//  (b) separate resource bounds (measurements, n=50): Drum vs a variant
//      with one joint bound on all control messages — under flood the
//      joint bound starves the push-reply channel and performance degrades
//      linearly, while unmodified Drum is indifferent.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto n_sim = static_cast<std::size_t>(
      flags.get_int("sim-n", 1000, "group size for the simulation panel"));
  auto rate = static_cast<std::size_t>(
      flags.get_int("rate", 40, "measured workload msgs/round"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 12",
                      "ablations: random ports (sim) and separate resource "
                      "bounds (measured), alpha=10%");

  util::Table a({"x", "drum", "drum-wk-ports"});
  for (double x : {0.0, 32.0, 64.0, 96.0, 128.0}) {
    auto drum = bench::sim_point(core::Variant::kDrum, n_sim, 0.1, x, runs,
                                 seed, 600, 0.0, 0.1, opts);
    auto wk = bench::sim_point(core::Variant::kDrumWkPorts, n_sim, 0.1, x,
                               runs, seed, 600, 0.0, 0.1, opts);
    a.add_row({x, drum.rounds_to_target.mean(), wk.rounds_to_target.mean()},
              2);
  }
  a.print("Figure 12(a): random ports ablation, n=" + std::to_string(n_sim) +
          " (simulation, rounds)");

  bench::MeasureOpts mo;
  mo.rate = rate;
  mo.measured_rounds = 30;
  mo.seed = seed;
  int point = 0;
  util::Table b({"x", "drum rounds", "shared-bounds rounds",
                 "drum msg/round", "shared msg/round"});
  for (double x : {0.0, 32.0, 64.0, 128.0, 256.0}) {
    mo.udp_base_port = static_cast<std::uint16_t>(21000 + 200 * point++);
    auto drum = bench::measured_point(core::Variant::kDrum, 0.1, x, mo);
    mo.udp_base_port = static_cast<std::uint16_t>(21000 + 200 * point++);
    auto shared =
        bench::measured_point(core::Variant::kDrumSharedBounds, 0.1, x, mo);
    b.add_row({x, drum.propagation_rounds_mean,
               shared.propagation_rounds_mean, drum.throughput_msgs_per_round,
               shared.throughput_msgs_per_round},
              2);
  }
  b.print("Figure 12(b): resource separation ablation, n=50 (measured)");
  return 0;
}
