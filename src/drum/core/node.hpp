// The real Drum protocol node (paper §4, §8) and its variants.
//
// A Node is a passive, single-threaded object driven by its runner:
//   drain_ingress() + ingest()
//               — the two-stage ingress pipeline (DESIGN.md §12): stage A
//                 drains sockets into an ingress::IngressBatch within
//                 per-round, per-channel budgets (excess stays queued and is
//                 discarded at the end of the round, exactly as the paper
//                 prescribes); the runner batch-verifies, then stage B
//                 applies the checked frames;
//   on_round()  — the local gossip round tick: purge + age the buffer,
//                 flush unread queues, rotate random ports, reset budgets,
//                 then send this round's pull-requests and push-offers;
//   multicast() — originate a signed application message.
//
// Rounds are *local*: each runner jitters its tick, so rounds are
// unsynchronized across nodes (paper §8). The five reception channels and
// their budgets:
//
//   channel            port            budget (defaults, Drum)
//   push-offer         well-known      |view_push| (2)
//   pull-request       well-known      send_capacity/2 (2)
//   push-reply         random, boxed   send_capacity/2 (2)
//   pull-reply data    random, boxed   recv_data_capacity/2 (4)
//   push data          random, boxed   recv_data_capacity/2 (4)
//
// kDrumSharedBounds merges the three control budgets into one joint budget
// (§9); kDrumWkPorts replaces the random pull-reply port with a fixed,
// attackable one (§9).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "drum/core/buffer.hpp"
#include "drum/core/config.hpp"
#include "drum/core/ingress.hpp"
#include "drum/core/message.hpp"
#include "drum/core/scoring.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/net/transport.hpp"
#include "drum/obs/metrics.hpp"
#include "drum/obs/trace.hpp"
#include "drum/util/rng.hpp"

namespace drum::core {

/// Directory entry for a group member: identity keys plus the well-known
/// ports an attacker also knows. Produced by the membership layer (static in
/// §8's experiments; dynamic in drum::membership).
struct Peer {
  std::uint32_t id = 0;
  std::uint32_t host = 0;
  std::uint16_t wk_pull_port = 0;
  std::uint16_t wk_offer_port = 0;
  std::uint16_t wk_pull_reply_port = 0;  ///< kDrumWkPorts only
  crypto::Ed25519PublicKey sign_pub{};
  crypto::X25519Key dh_pub{};
  /// False marks a hole in the directory (left/expelled/suspected member).
  /// Absent members are never gossiped with and their messages are dropped.
  bool present = true;
};

class Node {
 public:
  struct Delivery {
    DataMessage msg;
    /// The message's round counter at reception — its propagation time in
    /// rounds (paper §8.1).
    std::uint32_t hops = 0;
  };
  using DeliverFn = std::function<void(const Delivery&)>;

  /// Immutable shared peer directory. A 10k-node swarm hands every node the
  /// SAME directory object (one copy instead of n, ~n² Peer entries saved);
  /// nodes never mutate it in place — directory changes (certificate
  /// admission, update_peers) swap in a fresh copy, copy-on-write.
  using PeerDirectory = std::shared_ptr<const std::vector<Peer>>;

  /// `peers` must contain one entry per group member including this node
  /// (index == id). Binds the node's well-known ports on `transport`
  /// immediately; throws std::runtime_error if they are taken.
  Node(NodeConfig cfg, crypto::Identity identity, std::vector<Peer> peers,
       net::Transport& transport, std::uint64_t rng_seed,
       DeliverFn on_deliver);
  /// Shared-directory overload: `peers` must be non-null and is never
  /// mutated through this handle. Prefer this in large swarms.
  Node(NodeConfig cfg, crypto::Identity identity, PeerDirectory peers,
       net::Transport& transport, std::uint64_t rng_seed,
       DeliverFn on_deliver);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Ingress stage A (DESIGN.md §12): drains this node's sockets into
  /// `batch` with recv_batch, charging reception budgets and greylist
  /// peek-drops at read time exactly as the one-at-a-time loop did, and
  /// decoding every admitted datagram into typed frames. No signature or
  /// port-box check
  /// happens here — the caller runs batch.verify() (ideally after draining
  /// several co-scheduled nodes) and then pushes the checked frames back
  /// through ingest(). Must be serialized with every other entry into this
  /// node.
  void drain_ingress(ingress::IngressBatch& batch);

  /// Ingress stage B: applies crypto-checked frames — scoring, greylist,
  /// serving, dedupe, delivery — without re-verifying anything. `frames`
  /// must come from this node's own drain_ingress() section, after
  /// IngressBatch::verify() filled in the verdicts, in drain order. Must be
  /// serialized with every other entry into this node.
  void ingest(std::span<ingress::VerifiedFrame> frames);

  /// Local gossip round tick.
  void on_round();

  /// Originates a signed multicast message (this node is its source).
  /// Returns the assigned message id.
  MessageId multicast(util::ByteSpan payload);

  /// Replaces the peer directory (dynamic membership, paper §10). The new
  /// directory must still be indexed by id (use Peer::present = false for
  /// holes) and must keep this node's own entry present.
  void update_peers(std::vector<Peer> peers);

  /// Derives the X25519 pair key for every present peer now instead of on
  /// first contact. Drum assumes pairwise keys are established by the
  /// membership layer at join time (paper §2); without prewarming, the lazy
  /// cache pays ~n scalar multiplications during the first rounds of
  /// traffic — under an attack benchmark that books bootstrap CPU to the
  /// attack window. Harnesses call this once after construction.
  void prewarm_pair_keys();

  /// §10 certificate piggybacking. `own_cert` (an encoded, CA-signed
  /// certificate) is attached to every message this node originates and
  /// travels with forwarded copies. `validator` is consulted for data
  /// messages from sources missing from the directory: given the attached
  /// certificate bytes it returns the authenticated Peer (or nullopt); on
  /// success the node admits the source into its directory and processes
  /// the message normally. The membership layer installs both.
  using CertValidator =
      std::function<std::optional<Peer>(util::ByteSpan cert)>;
  void set_own_certificate(util::Bytes own_cert);
  void set_cert_validator(CertValidator validator);

  /// Socket lifecycle hook for readiness-driven runtimes (DESIGN.md §8): a
  /// reactor must learn about every socket this node binds — including the
  /// per-round random-port rotation — to (un)register it with its
  /// EventLoop. Called as hook(socket, true) right after a socket is bound
  /// and hook(socket, false) right before it is destroyed. Installing a
  /// hook immediately replays all currently bound sockets as additions;
  /// installing nullptr detaches without replay. The hook runs on whatever
  /// thread drives the node (constructor thread at install, the node's home
  /// shard thread during on_round rotation) — never concurrently with itself,
  /// because the node itself is single-threaded.
  using SocketHook = std::function<void(net::Socket&, bool added)>;
  void set_socket_hook(SocketHook hook);

  /// The node's full metric store: activity counters under "node.*"
  /// (rounds, delivered, duplicates, datagrams_read, flushed_unread,
  /// decode_errors, box_failures, sig_failures, unknown_sender,
  /// certs_admitted, pull_requests_served, push_offers_answered,
  /// push_replies_acted) plus per-channel telemetry under "chan.<name>.*"
  /// (read, flushed_unread, decode_errors, budget_exhausted counters and a
  /// per-round budget_used histogram) and the "node.poll.drained"
  /// queue-drain-depth histogram. Read with the typed accessors
  /// (obs::MetricsRegistry::counter_value & friends).
  [[nodiscard]] const obs::MetricsRegistry& registry() const {
    return registry_;
  }
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }
  /// Attaches (or detaches, with nullptr) a protocol-event trace ring. The
  /// ring must outlive the node; null means no tracing (the default) and
  /// costs one predictable branch per event site.
  void set_trace(obs::TraceRing* trace) { trace_ = trace; }
  [[nodiscard]] const NodeConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t round() const { return round_; }
  /// The peer-scoring table (meaningful only when cfg.scoring.enabled;
  /// empty otherwise). Exposed for tests and harness reporting; the node
  /// itself owns and drives it.
  [[nodiscard]] PeerScoreTable& score_table() { return score_; }
  [[nodiscard]] bool scoring_enabled() const { return cfg_.scoring.enabled; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  [[nodiscard]] bool has_message(const MessageId& id) const {
    return buffer_.seen(id);
  }

  /// drum::check invariants over the whole node: per-channel budget
  /// accounting never exceeds the configured bounds, the peer directory
  /// stays indexed by id with our own entry present, well-known sockets
  /// stay bound (random ones within their lifetime), and the message
  /// buffer's digest/size/seen coherence holds. Called automatically at the
  /// end of every on_round() in checked builds; no-op in Release.
  void check_invariants() const;

 private:
  struct BoundSocket {
    std::unique_ptr<net::Socket> sock;
    Channel channel;
    std::uint64_t created_round = 0;
    bool well_known = false;
  };

  /// One full local ingress cycle: drain → verify → ingest on a private
  /// batch. on_round()'s final processing pass for the ending round.
  void poll_cycle();

  /// Stage-A decode: parses one budget-admitted datagram into typed frames
  /// appended to `out`. Throws util::DecodeError on malformed wire bytes
  /// (the caller charges the blame). `disposition` carries the over-budget
  /// ack-only / score-only marking for the scored control channels.
  void parse_into(Channel channel, const net::Datagram& dgram,
                  ingress::Disposition disposition,
                  std::vector<ingress::VerifiedFrame>& out);

  // Stage-B appliers — the old handle_* bodies minus decode and crypto,
  // which stages A and verify() already did.
  /// Over-budget requests (Disposition::kAckOnly) are scored and answered
  /// with the constant-size empty ack, never served — bound overflow at a
  /// busy correct node is not misbehavior, and the requester's futility
  /// signal stays clean.
  void apply_pull_request(const ingress::VerifiedFrame& f);
  /// Over-budget offers (Disposition::kScoreOnly) are scored for
  /// attribution (the simulator's receiver sees every arrival pre-bound;
  /// this is the live equivalent, capped by the read multiplier) but never
  /// answered.
  void apply_push_offer(const ingress::VerifiedFrame& f);
  void apply_push_reply(const ingress::VerifiedFrame& f);
  void apply_data(ingress::VerifiedFrame& f);

  bool budget_available(Channel c) const;
  /// How many more datagrams this channel may read this round — the
  /// admissible recv_batch window for stage A.
  std::size_t budget_remaining(Channel c) const;
  void consume_budget(Channel c);
  std::size_t channel_budget(Channel c) const;
  std::size_t budget_used(Channel c) const;

  void init_metrics();
  void record_round_budgets();
  void trace(obs::EventKind kind, std::uint32_t a = 0, std::uint32_t b = 0) {
    if (trace_) trace_->record(cfg_.id, round_, kind, a, b);
  }

  const Peer* find_peer(std::uint32_t id) const;
  const Peer* resolve_sender(std::uint32_t id, const util::Bytes& cert);
  util::ByteSpan pair_key(std::uint32_t peer_id);
  void rotate_random_ports();
  void send_gossip();

  /// Stage one outgoing datagram for the current cycle; flushed as a single
  /// Socket::send_many scatter call (one network lock / one sendmmsg for
  /// the whole gossip fan-out) by flush_egress() at the end of ingest() and
  /// send_gossip().
  void queue_send(const net::Address& to, util::Bytes&& payload);
  void flush_egress();

  /// Read access to the directory.
  [[nodiscard]] const std::vector<Peer>& dir() const { return *peers_; }
  /// Copy-on-write access: clones the directory (even if notionally unique —
  /// directory changes are rare and cheap relative to the crypto they
  /// accompany), for the caller to mutate and then install via set_dir().
  [[nodiscard]] std::vector<Peer> dir_mutable() const { return *peers_; }
  void set_dir(std::vector<Peer>&& d) {
    peers_ = std::make_shared<const std::vector<Peer>>(std::move(d));
  }

  NodeConfig cfg_;
  crypto::Identity identity_;
  /// Never null. Shared (possibly by every node in a swarm) and immutable;
  /// mutations go through a local copy + pointer swap (see dir_mutable()).
  PeerDirectory peers_;
  net::Transport& transport_;
  util::Rng rng_;
  DeliverFn on_deliver_;

  MessageBuffer buffer_;
  std::uint64_t round_ = 0;
  std::uint64_t next_seqno_ = 0;

  // Round-state machine legality (drum::check): a Node is single-threaded
  // and neither the ingress stages nor on_round() may re-enter — a delivery
  // callback that drives the same node again would corrupt budgets
  // mid-flight.
  // multicast() from a callback is legal. Maintained unconditionally
  // (two bools), asserted only in checked builds.
  bool in_poll_ = false;
  bool in_round_ = false;
  /// Which thread is currently inside the node (default id = nobody).
  /// The node has no mutex on purpose — serialization is the *runtime's*
  /// job (ReactorRuntime's per-node st.mu) —
  /// so this guard turns a broken runtime contract into a loud checked-
  /// build failure instead of silent state corruption. Same-thread nesting
  /// is legal (multicast from a delivery callback); cross-thread overlap
  /// never is. See EntryGuard in node.cpp.
  std::atomic<std::thread::id> entry_owner_{};

  std::vector<BoundSocket> sockets_;  // well-known first, then rotating
  std::uint16_t cur_pull_reply_port_ = 0;
  std::uint16_t cur_push_reply_port_ = 0;
  std::uint16_t cur_push_data_port_ = 0;

  // Per-round budget usage.
  std::unordered_map<int, std::size_t> used_;
  std::size_t shared_control_used_ = 0;

  std::unordered_map<std::uint32_t, util::Bytes> pair_keys_;
  util::Bytes own_cert_;

  /// Egress staging buffer (queue_send/flush_egress). Member, not a local,
  /// so its capacity survives across cycles instead of reallocating every
  /// round.
  std::vector<std::pair<net::Address, util::Bytes>> egress_;

  // Peer-scoring layer (cfg_.scoring.enabled; DESIGN.md §10). The table
  // scores peers from attributable events; pending_pulls_ tracks this
  // round's outgoing pull requests for the futility signal (resolved at the
  // next on_round()).
  PeerScoreTable score_;
  std::vector<std::pair<std::uint32_t, bool>> pending_pulls_;
  CertValidator cert_validator_;
  SocketHook socket_hook_;

  // Observability. The registry owns all counters/histograms; the structs
  // below cache handles resolved once in init_metrics() so the hot path
  // never does a name lookup.
  obs::MetricsRegistry registry_;
  obs::TraceRing* trace_ = nullptr;
  struct StatCounters {
    obs::Counter* rounds = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* duplicates = nullptr;
    obs::Counter* datagrams_read = nullptr;
    obs::Counter* flushed_unread = nullptr;
    obs::Counter* decode_errors = nullptr;
    obs::Counter* box_failures = nullptr;
    obs::Counter* sig_failures = nullptr;
    obs::Counter* unknown_sender = nullptr;
    obs::Counter* certs_admitted = nullptr;
    obs::Counter* pull_requests_served = nullptr;
    obs::Counter* push_offers_answered = nullptr;
    obs::Counter* push_replies_acted = nullptr;
    /// Scoring layer (registered only when cfg.scoring.enabled):
    /// frames from greylisted peers dropped before consuming budget.
    obs::Counter* score_greylist_drops = nullptr;
    /// valid pull requests read past the budget and answered with an empty
    /// ack instead of data (futility-signal hygiene).
    obs::Counter* score_overflow_acks = nullptr;
  } c_;
  /// Scoring gauges, refreshed each on_round(): peers currently greylisted,
  /// cumulative greylist entries, and per-signal penalty totals.
  obs::Gauge* g_score_greylisted_ = nullptr;
  obs::Gauge* g_score_entries_ = nullptr;
  obs::Gauge* g_score_pen_decode_ = nullptr;
  obs::Gauge* g_score_pen_overuse_ = nullptr;
  obs::Gauge* g_score_pen_futility_ = nullptr;
  struct ChannelMetrics {
    obs::Counter* read = nullptr;
    obs::Counter* flushed_unread = nullptr;
    obs::Counter* decode_errors = nullptr;
    obs::Counter* budget_exhausted = nullptr;
    obs::Histogram* budget_used = nullptr;
  };
  ChannelMetrics chan_[5];
  /// kDrumSharedBounds only: the joint control budget's telemetry.
  ChannelMetrics shared_control_;
  obs::Histogram* h_poll_drained_ = nullptr;
};

}  // namespace drum::core
