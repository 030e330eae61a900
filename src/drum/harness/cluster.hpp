// Measurement harness: runs an n-node cluster of real protocol nodes with
// unsynchronized jittered rounds, a DoS attack injector, and a multicast
// workload — the reproduction of the paper's §8 Emulab experiments.
//
// Substitutions vs the paper (see DESIGN.md §6): all nodes live in one OS
// process; the "LAN" is either the deterministic in-memory transport
// (default) or real loopback UDP sockets (use_udp); the clock is virtual —
// the event loop fires each node's jittered round ticks, the attacker's
// bursts, and the source's transmissions in timestamp order and polls nodes
// in between, so a 100-round experiment takes CPU time, not wall time.
//
// Adversary model (paper §5, §7): a malicious_fraction of the group appears
// in every directory but runs no node (their gossip is wasted, as in the
// paper); the attack injector sends each attacked process x fabricated
// messages per round, split across its well-known ports according to the
// protocol variant, with spoofed source addresses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "drum/core/config.hpp"
#include "drum/core/node.hpp"
#include "drum/net/mem_transport.hpp"
#include "drum/obs/export.hpp"
#include "drum/obs/metrics.hpp"
#include "drum/obs/trace.hpp"
#include "drum/util/rng.hpp"
#include "drum/util/stats.hpp"

namespace drum::harness {

struct ClusterConfig {
  core::Variant variant = core::Variant::kDrum;
  std::size_t n = 50;               ///< group size (directory entries)
  double malicious_fraction = 0.1;  ///< adversary-controlled members
  double alpha = 0.0;               ///< attacked fraction of the group
  double x = 0.0;                   ///< fabricated msgs per victim per round
  std::size_t fanout = 4;
  double loss = 0.0;                ///< transport loss (LAN: ~0)
  std::uint64_t seed = 1;
  std::int64_t round_us = 100'000;  ///< round duration (paper: 1 s; scaled)
  double round_jitter = 0.2;        ///< +/- fraction of round duration
  std::size_t rate = 40;            ///< source msgs per round
  std::size_t payload_size = 50;    ///< bytes (paper §8.2)
  bool use_udp = false;             ///< real loopback UDP instead of mem net
  /// One-way delivery latency on the in-memory LAN (virtual µs). Must be
  /// well below round_us (paper model: latency < half the gossip period)
  /// but above the flood's inter-packet gap so handshakes genuinely contend
  /// with the flood. Ignored in UDP mode.
  std::int64_t latency_us = 1000;
  bool verify_signatures = true;
  /// §4 ablation: keep (rather than discard) unread datagrams at round end.
  bool discard_unread = true;
  /// The real attacker floods continuously; finer bursts approximate that
  /// (coarse bursts leave an artificial clean window right after each
  /// victim's round tick).
  std::size_t attacker_bursts_per_round = 50;
  std::uint16_t udp_base_port = 21000;  ///< well-known port plan for UDP
  /// Per-node gossip trace ring capacity; 0 (default) disables tracing.
  std::size_t trace_capacity = 0;
};

/// Aggregated observations. "Latency" is virtual time (µs) from multicast
/// to delivery; "hops" is the paper's per-message round counter.
struct ClusterMetrics {
  /// Per correct non-source node: messages delivered inside the measurement
  /// window, and mean delivery latency.
  struct PerNode {
    std::uint32_t id = 0;
    bool attacked = false;
    std::uint64_t delivered = 0;
    util::RunningStats latency_us;
    util::RunningStats hops;
  };
  std::vector<PerNode> nodes;

  /// Per tracked message that reached >= 99% of correct receivers: the max
  /// round counter at crossing (propagation time in rounds) and the virtual
  /// time it took.
  util::Samples propagation_rounds;
  util::Samples propagation_us;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_completed = 0;  ///< reached the 99% threshold
  std::int64_t window_us = 0;            ///< measurement window length

  /// Mean received throughput (messages per second of virtual time) over
  /// correct non-source nodes.
  [[nodiscard]] double mean_throughput_msgs_per_sec() const;
  [[nodiscard]] double mean_latency_ms() const;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Advances virtual time. workload=true has the source multicast at the
  /// configured rate during the period. Metrics accumulate only between
  /// begin_measurement()/end_measurement().
  void run_for_us(std::int64_t duration_us, bool workload);

  /// Convenience: rounds instead of µs.
  void run_rounds(double rounds, bool workload) {
    run_for_us(static_cast<std::int64_t>(rounds * static_cast<double>(
                                                      cfg_.round_us)),
               workload);
  }

  void begin_measurement();
  void end_measurement();

  /// Multicasts an explicit payload from the source node and tracks its
  /// propagation like the generated workload (used by bulk-transfer
  /// examples). Returns the message id.
  core::MessageId multicast_from_source(util::ByteSpan payload);

  [[nodiscard]] const ClusterMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t source_id() const { return source_; }
  [[nodiscard]] std::size_t correct_count() const { return nodes_.size(); }
  [[nodiscard]] bool is_attacked(std::uint32_t id) const;
  [[nodiscard]] const core::Node& node(std::size_t i) const {
    return *nodes_[i].node;
  }
  /// The node's trace ring; nullptr unless cfg.trace_capacity > 0.
  [[nodiscard]] const obs::TraceRing* trace(std::size_t i) const {
    return nodes_[i].trace.get();
  }

  /// drum::check invariants over the harness: node_index_ is a bijection
  /// onto live nodes, victims and the source are correct (instantiated)
  /// members, every armed round tick lies in the future, and tracked
  /// messages never record more deliveries than there are receivers.
  /// Called at construction and after every run_for_us(); no-op in Release.
  void check_invariants() const;

  /// Which nodes a merged registry covers.
  enum class NodeSet { kAll, kAttacked, kNonAttacked };
  /// Folds the selected nodes' metric registries (counters, per-channel
  /// budget histograms, runner telemetry) into one experiment-wide view.
  [[nodiscard]] obs::MetricsRegistry merged_registry(
      NodeSet set = NodeSet::kAll) const;
  /// Network-layer metrics (drops by cause, queue depth). Shared by all
  /// nodes; empty until traffic has flowed.
  [[nodiscard]] const obs::MetricsRegistry& net_registry() const {
    return net_registry_;
  }

  /// One JSON document for the whole experiment: the config, the
  /// all/attacked/non-attacked merged registries, the network registry, and
  /// flat per-node counters. The machine-readable artifact bench binaries
  /// write next to their printed tables.
  [[nodiscard]] std::string metrics_json() const;
  /// Writes metrics_json() to `path`; returns false on I/O failure.
  bool write_metrics_json(const std::string& path) const;

  /// Per-round progression sampled during the measurement window: columns
  /// round, t_us, delivered, flushed_unread, net_dropped (cumulative).
  [[nodiscard]] const obs::TimeSeries& timeseries() const { return series_; }

 private:
  struct LiveNode {
    std::uint32_t id;
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<core::Node> node;
    std::unique_ptr<obs::TraceRing> trace;  // null unless tracing enabled
    std::int64_t next_tick_us;
  };

  struct TrackedMessage {
    std::int64_t sent_us;
    std::size_t deliveries = 0;
    std::uint32_t max_hops = 0;
    bool completed = false;
    bool in_window = false;
  };

  void fire_attacker_burst();
  void fire_workload();
  void on_delivery(std::uint32_t node_id, const core::Node::Delivery& d);
  std::int64_t jittered_round(util::Rng& rng) const;
  void maybe_sample_series();

  ClusterConfig cfg_;
  util::Rng rng_;
  std::unique_ptr<net::MemNetwork> mem_net_;  // null in UDP mode
  // UDP mode's flood source; null until the first attacker burst.
  std::unique_ptr<net::Transport> attacker_transport_;
  std::unique_ptr<net::Socket> attacker_sock_;
  std::vector<core::Peer> directory_;
  std::vector<LiveNode> nodes_;
  std::vector<std::uint32_t> victims_;  // attacked node ids
  std::uint32_t source_ = 0;
  std::size_t n_malicious_ = 0;

  std::int64_t now_us_ = 0;
  std::int64_t next_burst_us_ = 0;
  std::int64_t next_send_us_ = 0;
  bool measuring_ = false;
  std::int64_t measure_start_us_ = 0;
  std::int64_t next_sample_us_ = 0;
  obs::MetricsRegistry net_registry_;
  obs::TimeSeries series_;

  std::map<core::MessageId, TrackedMessage> tracked_;
  std::map<std::uint32_t, std::size_t> node_index_;  // id -> nodes_ index
  ClusterMetrics metrics_;
  std::size_t completion_threshold_ = 0;
  std::uint64_t attacker_seq_ = 0;
};

}  // namespace drum::harness
