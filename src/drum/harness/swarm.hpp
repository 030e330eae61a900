// Swarm — the *real-time* many-nodes-in-one-process harness (DESIGN.md §8).
//
// Cluster simulates the paper's experiments in virtual time; Swarm runs the
// same protocol nodes against the wall clock to measure the *runtime* itself:
// how many nodes one process sustains, at what CPU cost, and with what
// delivery latency — the ReactorRuntime's reason to exist. One
// ReactorRuntime hosts every node on `shards` event-loop threads; each
// node's sockets wait on its home shard's loop (DESIGN.md §8, §13).
//
// An adversary thread drives one strategy from the drum::adversary registry
// — the same registry the Monte-Carlo simulator uses — against the attacked
// nodes' well-known ports (spoofed sources on the mem network; a real socket
// with sendmmsg batching on UDP), so the swarm demonstrates DoS pressure
// with unsynchronized rounds at scale. Colluding insiders are directory
// members whose identities the attacker holds: their frames carry valid
// port boxes (sealed with the real pairwise keys) but they run no protocol
// node, making them authenticated black holes.
//
// Delivery latency is measured end-to-end in wall time: the source embeds a
// steady-clock timestamp in each payload's first 8 bytes; every delivery
// callback subtracts it. examples/swarm.cpp turns the report into
// BENCH_reactor.json.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "drum/adversary/adversary.hpp"
#include "drum/check/annotations.hpp"
#include "drum/core/config.hpp"
#include "drum/core/node.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/obs/metrics.hpp"
#include "drum/runtime/reactor.hpp"
#include "drum/util/rng.hpp"
#include "drum/util/stats.hpp"

namespace drum::harness {

struct SwarmConfig {
  core::Variant variant = core::Variant::kDrum;
  std::size_t n = 512;     ///< live (all correct) nodes
  double alpha = 0.0;      ///< attacked fraction of the group
  double x = 0.0;          ///< fabricated msgs per victim per round
  std::size_t fanout = 4;
  std::uint64_t seed = 1;
  /// Mean local round duration. Scaled down from the paper's 1 s so short
  /// benchmark windows still cover many rounds.
  std::chrono::milliseconds round{200};
  double jitter = 0.2;          ///< per-node tick jitter (+/- fraction)
  std::size_t rate = 10;        ///< source multicasts per round
  std::size_t payload_size = 64;  ///< bytes; >= 8 (timestamp header)
  bool use_udp = false;         ///< real loopback UDP instead of mem net
  std::uint16_t udp_base_port = 31000;
  /// Reactor shards (DESIGN.md §13), >= 1: that many event-loop threads,
  /// each owning a disjoint slice of the nodes.
  std::size_t shards = 1;
  /// Derive every pairwise key at construction (a join-time cost in the
  /// paper's model, so benchmarks do not bill X25519 bootstrap to the
  /// measured window). Disable for very large swarms: prewarming is O(n²)
  /// scalar multiplications across the group (a 10k swarm would pay 10^8),
  /// while lazy derivation touches only the partners a node actually
  /// gossips with.
  bool prewarm = true;
  /// Flood pacing: each burst delivers 1 / bursts of the round's planned
  /// datagrams.
  std::size_t attacker_bursts_per_round = 20;
  bool verify_signatures = true;

  // ---- adversary zoo + defense (DESIGN.md §10) -------------------------
  /// Strategy name in the drum::adversary registry. The attacker thread is
  /// armed when alpha > 0 and the strategy can act (x > 0 or insiders
  /// exist).
  std::string adversary = "flood";
  adversary::Params attack_params;
  /// Fraction of the group run as colluding insiders. They occupy the TAIL
  /// ids of the directory, hold real identities (the attacker keeps the
  /// private keys), and run no protocol node.
  double malicious = 0.0;
  /// Peer-scoring + greylist defense applied to every live node
  /// (scoring.enabled selects it).
  core::ScoringConfig scoring;
};

/// What one measurement window produced. All times are wall-clock.
struct SwarmReport {
  std::size_t nodes = 0;
  /// Reactor shards that ran — one thread each, excluding the attacker and
  /// the caller.
  std::size_t shards = 0;
  double wall_s = 0.0;
  double cpu_user_s = 0.0;  ///< getrusage(RUSAGE_SELF) delta over the window
  double cpu_sys_s = 0.0;
  std::uint64_t rounds = 0;     ///< sum of node round ticks
  /// Drain-and-ingest passes over a node (the runtime's `runner.polls`
  /// counter), summed over nodes.
  std::uint64_t polls = 0;
  std::uint64_t delivered = 0;  ///< application deliveries (all nodes)
  std::uint64_t attack_datagrams = 0;
  /// Datagrams the ingress path disposed of: budgeted reads + round-end
  /// flushes + greylist peek-drops. The numerator of the pipeline's
  /// datagrams/sec figure — it counts work retired, not work offered.
  std::uint64_t ingress_datagrams = 0;
  /// Scoring layer (zero when disabled): frames dropped pre-budget because
  /// the claimed sender was greylisted, cumulative greylist entries across
  /// all nodes, and peers still greylisted at the end of the window.
  std::uint64_t greylist_drops = 0;
  std::uint64_t greylist_entries = 0;
  std::uint64_t greylisted_at_end = 0;
  std::size_t colluders = 0;
  std::uint64_t latency_samples = 0;
  double latency_ms_mean = 0.0;
  double latency_ms_p50 = 0.0;
  double latency_ms_p90 = 0.0;
  double latency_ms_p99 = 0.0;
  /// Event-loop telemetry ("loop.*", "reactor.*") as JSON.
  std::string loop_metrics_json = "{}";

  [[nodiscard]] double cpu_total_s() const { return cpu_user_s + cpu_sys_s; }
  /// Process CPU utilization over the window (1.0 = one saturated core).
  [[nodiscard]] double cpu_util() const {
    return wall_s > 0 ? cpu_total_s() / wall_s : 0.0;
  }
  /// Ingress throughput over the window (compare_bench: higher is better).
  [[nodiscard]] double ingress_datagrams_per_sec() const {
    return wall_s > 0 ? static_cast<double>(ingress_datagrams) / wall_s : 0.0;
  }
  /// CPU milliseconds burned per delivered message (lower is better) — the
  /// paper's cost-of-defense lens: a flood wins by inflating this.
  [[nodiscard]] double cpu_ms_per_delivered() const {
    return delivered > 0 ? cpu_total_s() * 1e3 / static_cast<double>(delivered)
                         : 0.0;
  }
};

class Swarm {
 public:
  explicit Swarm(SwarmConfig cfg);
  ~Swarm();

  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  /// Launches the runtime (and the attacker when x > 0 and alpha > 0).
  void start();
  /// Drives the source workload from the calling thread for `d` wall time
  /// while the nodes gossip; accumulates the measurement window.
  void run_for(std::chrono::milliseconds d);
  /// Stops attacker and runtime; idempotent.
  void stop();

  /// Assembles the report from the accumulated window + node registries.
  /// Call after stop().
  [[nodiscard]] SwarmReport report() const;

  [[nodiscard]] const SwarmConfig& config() const { return cfg_; }

 private:
  struct LiveNode {
    std::uint32_t id = 0;
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<core::Node> node;
  };

  void on_delivery(std::uint32_t node_id, const core::Node::Delivery& d);
  void attacker_main();

  SwarmConfig cfg_;
  util::Rng rng_;
  std::unique_ptr<net::MemNetwork> mem_net_;  // null in UDP mode
  std::vector<core::Peer> directory_;
  std::vector<LiveNode> nodes_;
  std::vector<std::uint32_t> victims_;
  /// Tail ids whose identities the attacker holds (no live node).
  std::vector<std::uint32_t> colluder_ids_;
  std::vector<crypto::Identity> colluder_identities_;
  std::unique_ptr<runtime::ReactorRuntime> reactor_;

  /// Per-node delivery activity, written by delivery callbacks (any runtime
  /// thread) and read by the attacker thread to build the adaptive
  /// strategy's usefulness signal. obs counters are single-thread-confined,
  /// hence this separate atomic array.
  std::vector<std::atomic<std::uint32_t>> activity_;

  /// Serializes start()/stop() and owns the attacker thread handle. Without
  /// it, two concurrent stop() calls both saw started_ == true and both
  /// joined attacker_ — undefined behavior.
  mutable check::Mutex lifecycle_mu_;
  bool started_ DRUM_GUARDED_BY(lifecycle_mu_) = false;
  std::thread attacker_ DRUM_GUARDED_BY(lifecycle_mu_);
  /// Built in the constructor (fail fast on unknown names); plan_round()
  /// runs on the attacker thread only.
  std::unique_ptr<adversary::Adversary> adversary_;
  std::atomic<bool> attacker_stop_{false};
  std::atomic<std::uint64_t> attack_sent_{0};

  std::atomic<bool> measuring_{false};
  mutable check::Mutex lat_mu_;
  util::Samples latency_ms_ DRUM_GUARDED_BY(lat_mu_);
  std::atomic<std::uint64_t> delivered_{0};

  // Measurement window accumulators; written only by the run_for() caller.
  double wall_s_ = 0.0;
  double cpu_user_s_ = 0.0;
  double cpu_sys_s_ = 0.0;
};

}  // namespace drum::harness
