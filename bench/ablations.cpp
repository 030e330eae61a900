// Ablations of Drum design choices beyond the paper's Figure 12
// (DESIGN.md §5):
//  (a) round-end discard of unread backlog (paper §4 calls it "important,
//      especially in the presence of DoS attacks") vs FIFO carry-over —
//      measured on the real implementation: with carry-over, stale flood
//      datagrams at the head of the queue eat every future round's budget;
//  (b) Drum's even push/pull fan-out split vs asymmetric splits
//      (simulation): the even split is what lets each half-protocol cover
//      the other's attacked direction.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace drum;
  util::Flags flags(argc, argv);
  auto runs = static_cast<std::size_t>(
      flags.get_int("runs", 100, "simulation runs per point"));
  auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "RNG seed"));
  auto rate = static_cast<std::size_t>(
      flags.get_int("rate", 30, "measured workload msgs/round"));
  auto opts = bench::sim_options_from_flags(flags);
  flags.done();

  bench::print_header("Ablations",
                      "round-end discard policy (measured) and fan-out "
                      "split (simulation)");

  // (a) discard vs carry-over, measured, alpha=10%.
  //
  // The discard matters exactly where valid traffic must survive on a
  // flooded well-known port: Pull's source serves pull-requests there, so
  // with carry-over the stale flood at the head of the queue starves it
  // forever. Drum is nearly indifferent — its critical paths (pull-replies,
  // push-replies, push data) ride on unflooded random ports, which is the
  // deeper reason random ports + discard compose.
  {
    util::Table t({"x", "pull discard", "pull carry-over", "drum discard",
                   "drum carry-over"});
    int point = 0;
    auto run_one = [&](core::Variant v, double x, bool discard) {
      harness::ClusterConfig cfg;
      cfg.variant = v;
      cfg.n = 50;
      cfg.alpha = 0.1;
      cfg.x = x;
      cfg.rate = rate;
      cfg.verify_signatures = false;
      cfg.discard_unread = discard;
      cfg.seed = seed;
      cfg.udp_base_port = static_cast<std::uint16_t>(21000 + 200 * point++);
      harness::Cluster cluster(cfg);
      cluster.run_rounds(5, true);
      cluster.begin_measurement();
      cluster.run_rounds(30, true);
      cluster.end_measurement();
      cluster.run_rounds(20, false);
      return cluster.metrics().mean_throughput_msgs_per_sec() * 0.1;
    };
    for (double x : {0.0, 32.0, 128.0}) {
      t.add_row({x, run_one(core::Variant::kPull, x, true),
                 run_one(core::Variant::kPull, x, false),
                 run_one(core::Variant::kDrum, x, true),
                 run_one(core::Variant::kDrum, x, false)},
                2);
    }
    t.print("Ablation (a): round-end discard vs FIFO carry-over — received "
            "throughput (msg/round), alpha=10%, n=50 (measured)");
  }

  // (c) the ATTACKER rebalances its budget between Drum's two well-known
  // channels. No split helps: the abandoned channel carries the data.
  {
    util::Table t({"attack push fraction", "drum rounds (x=128)",
                   "drum rounds (x=512)"});
    for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      std::vector<double> row{frac};
      for (double x : {128.0, 512.0}) {
        sim::SimParams p;
        p.protocol = core::Variant::kDrum;
        p.n = 120;
        p.alpha = 0.1;
        p.x = x;
        p.attack_push_fraction = frac;
        p.max_rounds = 600;
        auto agg = sim::simulate_many(p, runs, seed, opts);
        row.push_back(agg.rounds_to_target.mean());
      }
      t.add_row(row, 2);
    }
    t.print("Ablation (c): attacker budget split vs Drum, alpha=10%, n=120 "
            "(simulation, rounds)");
  }

  // (b) fan-out split, simulation, alpha=10%, x=128.
  {
    util::Table t({"x", "push1+pull3", "push2+pull2 (drum)", "push3+pull1"});
    for (double x : {0.0, 32.0, 64.0, 128.0}) {
      std::vector<double> row{x};
      for (std::size_t split : {1u, 2u, 3u}) {
        sim::SimParams p;
        p.protocol = core::Variant::kDrum;
        p.n = 120;
        p.alpha = 0.1;
        p.x = x;
        p.drum_push_view = split;
        p.max_rounds = 600;
        auto agg = sim::simulate_many(p, runs, seed, opts);
        row.push_back(agg.rounds_to_target.mean());
      }
      t.add_row(row, 2);
    }
    t.print("Ablation (b): Drum fan-out split, n=120 (simulation, rounds)");
  }
  return 0;
}
