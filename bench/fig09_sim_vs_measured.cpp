// Figure 9 of the paper: the round-based simulation against measurements of
// the real multithreaded implementation (paper: Java on 50 Emulab machines;
// here: the C++ nodes over the in-process LAN with unsynchronized jittered
// rounds, the push-offer handshake, boxes and signatures — see DESIGN.md §6
// for the substitutions). n = 50, 10% malicious.
//  (a) propagation time vs x at alpha=10%;  (b) vs alpha at x=128.
// The paper's point — measurement matches simulation — should reproduce as
// agreement between the two columns per protocol.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point (paper: 1000)"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto rate = static_cast<std::size_t>(flags.get_int(
      "rate", 10, "measured workload: messages per round (each tracked "
                  "message is one propagation sample)"));
  auto rounds = flags.get_double("rounds", 30, "measured window in rounds");
  bool verify = flags.get_bool("verify", false,
                               "verify Ed25519 signatures in measurements");
  bool udp = flags.get_bool("udp", false, "use real loopback UDP sockets");
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Figure 9",
                      "simulation vs real-implementation measurement, n=50");

  const std::size_t n = 50;
  bench::MeasureOpts mo;
  mo.rate = rate;
  mo.measured_rounds = rounds;
  // Long drain: slow protocols (Push at high x) need tens of rounds per
  // message; a short drain would truncate their mean downwards.
  mo.drain_rounds = 60;
  mo.verify_signatures = verify;
  mo.use_udp = udp;
  mo.seed = seed;

  const core::Variant protos[] = {core::Variant::kDrum, core::Variant::kPush,
                                  core::Variant::kPull};

  util::Table a({"x", "drum sim", "drum meas", "push sim", "push meas",
                 "pull sim", "pull meas"});
  int point = 0;
  for (double x : {0.0, 32.0, 64.0, 128.0}) {
    std::vector<double> row{x};
    for (const auto& p : protos) {
      auto sim_agg =
          bench::sim_point(p, n, 0.1, x, runs, seed, 600, 0.0, 0.1, opts);
      mo.udp_base_port = static_cast<std::uint16_t>(21000 + 200 * point++);
      auto meas = bench::measured_point(p, 0.1, x, mo);
      row.push_back(sim_agg.rounds_to_target.mean());
      row.push_back(meas.propagation_rounds_mean);
    }
    a.add_row(row, 2);
  }
  a.print("Figure 9(a): propagation time vs x, alpha=10% (rounds)");

  util::Table b({"alpha %", "drum sim", "drum meas", "push sim", "push meas",
                 "pull sim", "pull meas"});
  for (double alpha : {0.1, 0.2, 0.4, 0.6, 0.8}) {
    std::vector<double> row{alpha * 100};
    for (const auto& p : protos) {
      auto sim_agg =
          bench::sim_point(p, n, alpha, 128, runs, seed, 600, 0.0, 0.1, opts);
      mo.udp_base_port = static_cast<std::uint16_t>(21000 + 200 * point++);
      auto meas = bench::measured_point(p, alpha, 128, mo);
      row.push_back(sim_agg.rounds_to_target.mean());
      row.push_back(meas.propagation_rounds_mean);
    }
    b.add_row(row, 2);
  }
  b.print("Figure 9(b): propagation time vs alpha, x=128 (rounds)");
  return 0;
}
