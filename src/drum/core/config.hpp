// Configuration of a real protocol node. The defaults reproduce the paper's
// measurement setup (§8): combined fan-out 4 (Drum: 2 push + 2 pull),
// 10-round buffers, at most 80 messages per gossip exchange, and per-
// operation resource bounds. The variant enum selects Drum, the Push/Pull
// baselines, or the §9 ablations.
#pragma once

#include <cstddef>
#include <cstdint>

#include "drum/core/scoring.hpp"

namespace drum::core {

enum class Variant {
  kDrum,              ///< push + pull, separate bounds, random ports
  kPush,              ///< push only
  kPull,              ///< pull only
  kDrumWkPorts,       ///< §9: pull-replies arrive on a well-known port
  kDrumSharedBounds,  ///< §9: one joint bound on all control messages
};

const char* variant_name(Variant v);

struct NodeConfig {
  std::uint32_t id = 0;
  Variant variant = Variant::kDrum;

  /// Total fan-out F; Drum variants use F/2 push + F/2 pull views.
  std::size_t fanout = 4;

  /// Well-known ports this node binds (must match its Peer entry).
  std::uint16_t wk_pull_port = 0;
  std::uint16_t wk_offer_port = 0;
  /// Only used by kDrumWkPorts: fixed pull-reply port.
  std::uint16_t wk_pull_reply_port = 0;

  // ---- resource bounds (all "per round") -------------------------------
  /// Push-offers answered per round (paper: typically |view_push|).
  std::size_t max_offers_per_round = 2;
  /// Sending capacity: pull-requests served + push-replies acted on.
  /// Split equally between the two when both operations are enabled.
  std::size_t send_capacity = 4;
  /// Incoming data datagrams processed per round, split equally between
  /// pull-reply data and push data.
  std::size_t recv_data_capacity = 8;

  // ---- gossip parameters ------------------------------------------------
  std::size_t buffer_rounds = 10;       ///< purge messages after this many rounds
  std::size_t seen_rounds = 40;  ///< dedup set, then a seqno floor (buffer.hpp)
  std::size_t max_msgs_per_gossip = 80; ///< cap per exchange (paper §8.2)
  std::size_t port_lifetime_rounds = 3; ///< random sockets retired after this
  /// Seqno of this node's first multicast. Receivers take a source's seqnos
  /// below one that left their seen set as seen (buffer.hpp), so a restart
  /// under the same id must start above: wall_clock_first_seqno().
  std::uint64_t first_seqno = 0;

  // ---- sanity-check limits (anti-amplification on fabricated input) -----
  std::size_t max_digest = 4096;
  std::size_t max_payload = 1024;

  /// Paper §4: "At the end of each round, p discards all unread messages
  /// from its incoming message buffers. This is important, especially in
  /// the presence of DoS attacks." Setting this false keeps the backlog
  /// (FIFO carry-over) — an ablation showing why the discard matters: old
  /// flood datagrams then consume every future round's budgets.
  bool discard_unread = true;

  /// Verify Ed25519 source signatures on reception. Always on in tests and
  /// examples. The high-throughput benches may disable it: the paper's
  /// testbed had 50 machines' worth of CPU, this reproduction has one core,
  /// and verification cost is per-message-constant — orthogonal to the DoS
  /// behaviour under study (documented in EXPERIMENTS.md).
  bool verify_signatures = true;

  /// Peer-scoring + greylist defense layer (DESIGN.md §10). Off by default:
  /// vanilla Drum is the paper's protocol; scoring is the ablatable
  /// extension the adversary zoo evaluates.
  ScoringConfig scoring;

  // Derived helpers -------------------------------------------------------
  [[nodiscard]] bool push_enabled() const { return variant != Variant::kPull; }
  [[nodiscard]] bool pull_enabled() const { return variant != Variant::kPush; }
  [[nodiscard]] std::size_t view_push() const {
    if (!push_enabled()) return 0;
    return variant == Variant::kPush ? fanout : fanout / 2;
  }
  [[nodiscard]] std::size_t view_pull() const {
    if (!pull_enabled()) return 0;
    return variant == Variant::kPull ? fanout : fanout / 2;
  }
  /// Per-round budgets for the five reception channels; see node.cpp.
  [[nodiscard]] std::size_t offer_budget() const {
    return push_enabled() ? max_offers_per_round : 0;
  }
  [[nodiscard]] std::size_t pull_request_budget() const {
    if (!pull_enabled()) return 0;
    return push_enabled() ? send_capacity / 2 : send_capacity;
  }
  [[nodiscard]] std::size_t push_reply_budget() const {
    if (!push_enabled()) return 0;
    return pull_enabled() ? send_capacity / 2 : send_capacity;
  }
  [[nodiscard]] std::size_t pull_data_budget() const {
    if (!pull_enabled()) return 0;
    return push_enabled() ? recv_data_capacity / 2 : recv_data_capacity;
  }
  [[nodiscard]] std::size_t push_data_budget() const {
    if (!push_enabled()) return 0;
    return pull_enabled() ? recv_data_capacity / 2 : recv_data_capacity;
  }
  /// kDrumSharedBounds: the joint control budget replaces the separate
  /// offer / pull-request / push-reply budgets (data stays separate, §9).
  [[nodiscard]] std::size_t shared_control_budget() const {
    return max_offers_per_round + send_capacity;
  }
};

/// Baseline config for a protocol variant with the paper's defaults.
NodeConfig make_node_config(Variant v, std::uint32_t id, std::size_t fanout = 4);

/// Microseconds since the Unix epoch: above every seqno an earlier run
/// under the same id used, unless it multicast more than once per
/// microsecond or the system clock stepped back since.
std::uint64_t wall_clock_first_seqno();

}  // namespace drum::core
