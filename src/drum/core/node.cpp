#include "drum/core/node.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "drum/check/check.hpp"
#include "drum/crypto/api.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/util/log.hpp"



namespace drum::core {

namespace {
// Indexed by static_cast<int>(Channel); used to name per-channel metrics.
constexpr const char* kChannelNames[5] = {"offer", "pull_req", "push_reply",
                                          "pull_data", "push_data"};

// The control channels, which kDrumSharedBounds budgets jointly.
constexpr bool is_control(Channel c) {
  return c == Channel::kOffer || c == Channel::kPullReq ||
         c == Channel::kPushReply;
}

// Flips a re-entrancy flag for a scope; exception-safe so a throwing
// delivery callback cannot leave the node looking permanently "in poll".
struct ReentryGuard {
  explicit ReentryGuard(bool& flag) : flag_(flag) { flag_ = true; }
  ~ReentryGuard() { flag_ = false; }
  ReentryGuard(const ReentryGuard&) = delete;
  ReentryGuard& operator=(const ReentryGuard&) = delete;
  bool& flag_;
};

// Claims the node for the calling thread, catching runtimes that violate
// the "every entry into a node is serialized" contract (reactor.hpp). A
// thread already inside may enter again (multicast from a delivery
// callback); a *different* thread entering concurrently is the bug the
// thread-safety annotations cannot see — the node deliberately has no
// mutex of its own — so it is asserted here at runtime instead.
struct EntryGuard {
  explicit EntryGuard(std::atomic<std::thread::id>& owner) : owner_(owner) {
    const std::thread::id self = std::this_thread::get_id();
    if (owner_.load(std::memory_order_relaxed) == self) return;  // nested
    std::thread::id nobody{};
    [[maybe_unused]] const bool won = owner_.compare_exchange_strong(
        nobody, self, std::memory_order_acquire, std::memory_order_relaxed);
    DRUM_ASSERT(won,
                "Node entered concurrently from two threads — the runtime "
                "must serialize all entry into a node");
    claimed_ = true;
  }
  ~EntryGuard() {
    if (claimed_) owner_.store(std::thread::id{}, std::memory_order_release);
  }
  EntryGuard(const EntryGuard&) = delete;
  EntryGuard& operator=(const EntryGuard&) = delete;

 private:
  std::atomic<std::thread::id>& owner_;
  bool claimed_ = false;
};
}  // namespace

Node::Node(NodeConfig cfg, crypto::Identity identity, std::vector<Peer> peers,
           net::Transport& transport, std::uint64_t rng_seed,
           DeliverFn on_deliver)
    : Node(cfg, std::move(identity),
           std::make_shared<const std::vector<Peer>>(std::move(peers)),
           transport, rng_seed, std::move(on_deliver)) {}

Node::Node(NodeConfig cfg, crypto::Identity identity, PeerDirectory peers,
           net::Transport& transport, std::uint64_t rng_seed,
           DeliverFn on_deliver)
    : cfg_(cfg),
      identity_(std::move(identity)),
      peers_(std::move(peers)),
      transport_(transport),
      rng_(rng_seed),
      on_deliver_(std::move(on_deliver)),
      buffer_(cfg.buffer_rounds, cfg.seen_rounds) {
  if (!peers_) {
    throw std::invalid_argument("peer directory must not be null");
  }
  if (cfg_.id >= dir().size() || dir()[cfg_.id].id != cfg_.id) {
    throw std::invalid_argument("peer directory must be indexed by id");
  }
  if (cfg_.scoring.enabled) {
    score_.reset(dir().size(), cfg_.scoring, cfg_.id);
  }
  init_metrics();
  auto bind_wk = [&](std::uint16_t port, Channel ch) {
    auto res = transport_.bind(port);
    if (!res) {
      throw std::runtime_error("failed to bind well-known port " +
                               std::to_string(port) + ": " +
                               net::to_string(res.error()));
    }
    sockets_.push_back(BoundSocket{res.take(), ch, 0, true});
  };
  if (cfg_.pull_enabled()) bind_wk(cfg_.wk_pull_port, Channel::kPullReq);
  if (cfg_.push_enabled()) bind_wk(cfg_.wk_offer_port, Channel::kOffer);
  if (cfg_.variant == Variant::kDrumWkPorts) {
    bind_wk(cfg_.wk_pull_reply_port, Channel::kPullData);
    cur_pull_reply_port_ = cfg_.wk_pull_reply_port;
  }
  rotate_random_ports();
  send_gossip();
}

void Node::init_metrics() {
  c_.rounds = &registry_.counter("node.rounds");
  c_.delivered = &registry_.counter("node.delivered");
  c_.duplicates = &registry_.counter("node.duplicates");
  c_.datagrams_read = &registry_.counter("node.datagrams_read");
  c_.flushed_unread = &registry_.counter("node.flushed_unread");
  c_.decode_errors = &registry_.counter("node.decode_errors");
  c_.box_failures = &registry_.counter("node.box_failures");
  c_.sig_failures = &registry_.counter("node.sig_failures");
  c_.unknown_sender = &registry_.counter("node.unknown_sender");
  c_.certs_admitted = &registry_.counter("node.certs_admitted");
  c_.pull_requests_served = &registry_.counter("node.pull_requests_served");
  c_.push_offers_answered = &registry_.counter("node.push_offers_answered");
  c_.push_replies_acted = &registry_.counter("node.push_replies_acted");
  c_.pair_keys_derived = &registry_.counter("node.pair_keys_derived");
  c_.pair_key_batches = &registry_.counter("node.pair_key_batches");
  for (int i = 0; i < 5; ++i) {
    const std::string base = std::string("chan.") + kChannelNames[i] + ".";
    chan_[i].read = &registry_.counter(base + "read");
    chan_[i].flushed_unread = &registry_.counter(base + "flushed_unread");
    chan_[i].decode_errors = &registry_.counter(base + "decode_errors");
    chan_[i].budget_exhausted = &registry_.counter(base + "budget_exhausted");
    chan_[i].budget_used = &registry_.histogram(base + "budget_used");
  }
  if (cfg_.variant == Variant::kDrumSharedBounds) {
    shared_control_.budget_exhausted =
        &registry_.counter("chan.control.budget_exhausted");
    shared_control_.budget_used =
        &registry_.histogram("chan.control.budget_used");
  }
  if (cfg_.scoring.enabled) {
    c_.score_greylist_drops = &registry_.counter("score.greylist_drops");
    c_.score_overflow_acks = &registry_.counter("score.overflow_acks");
    g_score_greylisted_ = &registry_.gauge("score.greylisted");
    g_score_entries_ = &registry_.gauge("score.greylist_entries");
    g_score_pen_decode_ = &registry_.gauge("score.penalties.decode");
    g_score_pen_overuse_ = &registry_.gauge("score.penalties.overuse");
    g_score_pen_futility_ = &registry_.gauge("score.penalties.futility");
  }
  h_poll_drained_ = &registry_.histogram("node.poll.drained");
}

Node::~Node() {
  if (!socket_hook_) return;
  for (auto& bs : sockets_) {
    if (bs.watched) socket_hook_(*bs.sock, /*watch=*/false);
  }
}

void Node::set_socket_hook(SocketHook hook) {
  socket_hook_ = std::move(hook);
  if (!socket_hook_) return;
  for (auto& bs : sockets_) {
    if (bs.watched) socket_hook_(*bs.sock, /*watch=*/true);
  }
}

void Node::set_watched(BoundSocket& bs, bool watched) {
  if (bs.watched == watched) return;
  bs.watched = watched;
  if (socket_hook_) socket_hook_(*bs.sock, watched);
}

const Peer* Node::find_peer(std::uint32_t id) const {
  if (id >= dir().size() || !dir()[id].present) return nullptr;
  return &dir()[id];
}

// Looks up the sender; if unknown, tries to admit it via a piggybacked
// CA-signed certificate (paper §10). Returns nullptr when the sender stays
// unknown; increments the unknown_sender stat in that case.
const Peer* Node::resolve_sender(std::uint32_t id, const util::Bytes& cert) {
  if (id == cfg_.id) {
    c_.unknown_sender->inc();
    return nullptr;
  }
  if (const Peer* p = find_peer(id)) return p;
  std::optional<Peer> admitted;
  if (!cert.empty() && cert_validator_) {
    admitted = cert_validator_(util::ByteSpan(cert));
  }
  if (!admitted || admitted->id != id) {
    c_.unknown_sender->inc();
    return nullptr;
  }
  // Copy-on-write admission: the directory may be shared across a whole
  // swarm, so this node installs its own amended copy instead of mutating
  // in place. Admission is rare (once per newly met member), the copy cost
  // is dwarfed by the certificate check that preceded it.
  std::vector<Peer> d = dir_mutable();
  if (admitted->id >= d.size()) {
    std::size_t old = d.size();
    d.resize(admitted->id + 1);
    for (std::size_t i = old; i < d.size(); ++i) {
      d[i].id = static_cast<std::uint32_t>(i);
      d[i].present = false;
    }
  }
  d[admitted->id] = *admitted;
  set_dir(std::move(d));
  c_.certs_admitted->inc();
  if (cfg_.scoring.enabled) score_.resize(dir().size());
  return &dir()[id];
}

void Node::update_peers(std::vector<Peer> peers) {
  EntryGuard entry(entry_owner_);
  if (cfg_.id >= peers.size() || !peers[cfg_.id].present) {
    throw std::invalid_argument("own entry missing from new directory");
  }
  for (std::uint32_t id = 0; id < peers.size(); ++id) {
    if (peers[id].present && peers[id].id != id) {
      throw std::invalid_argument("peer directory must be indexed by id");
    }
  }
  // Drop cached pair keys for entries whose DH key changed or vanished.
  for (auto it = pair_keys_.begin(); it != pair_keys_.end();) {
    std::uint32_t id = it->first;
    bool keep = id < peers.size() && peers[id].present &&
                id < dir().size() && dir()[id].present &&
                peers[id].dh_pub == dir()[id].dh_pub;
    it = keep ? std::next(it) : pair_keys_.erase(it);
  }
  set_dir(std::move(peers));
  if (cfg_.scoring.enabled) score_.resize(dir().size());
}

void Node::prewarm_pair_keys() {
  EntryGuard entry(entry_owner_);
  std::vector<std::uint32_t> ids;
  for (const auto& p : dir()) {
    if (p.present && p.id != cfg_.id && !pair_keys_.contains(p.id)) {
      ids.push_back(p.id);
    }
  }
  derive_pair_keys(ids);
}

void Node::derive_pair_keys(std::span<const std::uint32_t> ids) {
  if (ids.empty()) return;
  std::vector<crypto::X25519Key> dh_pubs;
  dh_pubs.reserve(ids.size());
  for (const std::uint32_t id : ids) dh_pubs.push_back(dir()[id].dh_pub);
  // One batch: the X25519 ladders run four at a time where the CPU allows
  // and share a single field inversion.
  const std::vector<util::Bytes> keys = identity_.derive_pair_keys(dh_pubs);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    crypto::PortBoxKey key;
    std::copy_n(keys[i].begin(), key.size(), key.begin());
    pair_keys_.emplace(ids[i], key);
  }
  c_.pair_keys_derived->inc(ids.size());
  c_.pair_key_batches->inc();
}

const crypto::PortBoxKey& Node::pair_key(std::uint32_t peer_id) {
  auto it = pair_keys_.find(peer_id);
  if (it == pair_keys_.end()) {
    derive_pair_keys(std::span(&peer_id, 1));
    it = pair_keys_.find(peer_id);
  }
  return it->second;
}

std::size_t Node::channel_budget(Channel c) const {
  switch (c) {
    case Channel::kOffer: return cfg_.offer_budget();
    case Channel::kPullReq: return cfg_.pull_request_budget();
    case Channel::kPushReply: return cfg_.push_reply_budget();
    case Channel::kPullData: return cfg_.pull_data_budget();
    case Channel::kPushData: return cfg_.push_data_budget();
  }
  return 0;
}

std::size_t Node::budget_remaining(Channel c) const {
  if (cfg_.variant == Variant::kDrumSharedBounds && is_control(c)) {
    const std::size_t budget = cfg_.shared_control_budget();
    return shared_control_used_ < budget ? budget - shared_control_used_ : 0;
  }
  const std::size_t used = used_[static_cast<std::size_t>(c)];
  const std::size_t budget = channel_budget(c);
  return used < budget ? budget - used : 0;
}

void Node::consume_budget(Channel c) {
  if (cfg_.variant == Variant::kDrumSharedBounds && is_control(c)) {
    ++shared_control_used_;
  } else {
    ++used_[static_cast<std::size_t>(c)];
  }
}

// Called at the end of each round, before the per-round usage counters
// reset: one histogram sample per enabled channel (its budget consumption
// this round) and an exhaustion count when the flood — or honest load — ate
// the whole budget. This is the paper's §5 "wasted resources" series.
void Node::record_round_budgets() {
  const bool shared = cfg_.variant == Variant::kDrumSharedBounds;
  if (shared) {
    DRUM_INVARIANT(shared_control_used_ <= cfg_.shared_control_budget(),
                   "joint control budget over-spent: ", shared_control_used_,
                   "/", cfg_.shared_control_budget());
    shared_control_.budget_used->record(shared_control_used_);
    if (shared_control_used_ >= cfg_.shared_control_budget()) {
      shared_control_.budget_exhausted->inc();
    }
  }
  for (int i = 0; i < 5; ++i) {
    const auto c = static_cast<Channel>(i);
    if (shared && is_control(c)) continue;  // accounted jointly above
    const std::size_t budget = channel_budget(c);
    const std::size_t used = used_[static_cast<std::size_t>(i)];
    DRUM_INVARIANT(used <= budget, "channel ", kChannelNames[i],
                   " budget over-spent: ", used, "/", budget);
    if (budget == 0) continue;  // channel disabled in this variant
    chan_[i].budget_used->record(used);
    if (used >= budget) {
      chan_[i].budget_exhausted->inc();
      trace(obs::EventKind::kBudgetExhausted, static_cast<std::uint32_t>(i),
            static_cast<std::uint32_t>(budget));
    }
  }
}

void Node::poll_cycle() {
  // The single-node shape of the pipeline: everything this node's sockets
  // hold becomes one local batch, so even a standalone driver gets the wide
  // Ed25519/HMAC passes across every queued datagram.
  ingress::IngressBatch batch;
  drain_ingress(batch);
  batch.dispatch();
}

void Node::drain_ingress(ingress::IngressBatch& batch) {
  EntryGuard entry(entry_owner_);
  DRUM_REQUIRE(!in_poll_,
               "drain_ingress() re-entered (delivery callback drove node?)");
  ReentryGuard guard(in_poll_);
  ingress::NodeSection& sec = batch.section_for(*this);
  std::size_t drained = 0;
  net::Datagram chunk[ingress::kRecvChunk];
  for (auto& bs : sockets_) {
    ChannelMetrics& cm = chan_[static_cast<int>(bs.channel)];
    // With scoring on, frames from greylisted peers on the well-known
    // control ports are dropped BEFORE consuming reception budget — the
    // greylisted peer loses its share of the bounded channel capacity. A
    // hard read cap keeps the budget-free drop loop from becoming its own
    // CPU DoS vector.
    const bool scored =
        cfg_.scoring.enabled && bs.well_known &&
        (bs.channel == Channel::kOffer || bs.channel == Channel::kPullReq);
    const std::size_t read_cap =
        channel_budget(bs.channel) * cfg_.scoring.read_multiplier;
    // Scored channels are additionally drained PAST their budget (still
    // under the read cap) so budget-exhaustion is attributable the way the
    // simulator models it — the receiver observes WHO flooded the bound,
    // not just that it overflowed. Over-budget frames are never served:
    // a valid pull request gets the constant-size empty ack (so a busy
    // correct node stays distinguishable from a black hole at every
    // requester's futility signal); a valid offer is scored and dropped.
    std::size_t reads = 0;
    while (true) {
      // Admissible-read window: never pull more out of the queue than this
      // round's budgets (or the scored read cap) still admit — the excess
      // stays queued for the round-end flush, exactly like the one-at-a-
      // time loop this replaced.
      const std::size_t window =
          scored ? (reads < read_cap ? read_cap - reads : 0)
                 : budget_remaining(bs.channel);
      if (window == 0) {
        // Spent for the round: nothing more is read here before the flush,
        // so stop being woken for it. Scored channels stay watched — their
        // read cap counts per drain, so a later drain may still read them.
        if (!scored) set_watched(bs, false);
        break;
      }
      const std::size_t want = std::min(window, ingress::kRecvChunk);
      const std::size_t got = bs.sock->recv_batch(chunk, want);
      if (scored) reads += got;
      for (std::size_t i = 0; i < got; ++i) {
        net::Datagram& dgram = chunk[i];
        if (scored) {
          auto claimed = peek_sender(util::ByteSpan(dgram.payload));
          if (claimed && score_.greylisted(*claimed)) {
            c_.score_greylist_drops->inc();
            continue;
          }
        }
        const bool in_budget = budget_remaining(bs.channel) > 0;
        auto disposition = ingress::Disposition::kProcess;
        if (!in_budget) {
          // Budget exhausted (scored channels only — the window above is
          // exact elsewhere): decode + score (+ ack) later, budget
          // untouched.
          disposition = bs.channel == Channel::kPullReq
                            ? ingress::Disposition::kAckOnly
                            : ingress::Disposition::kScoreOnly;
        } else {
          // Reading a datagram consumes the channel's budget *regardless of
          // its validity* — processing bogus requests is precisely the
          // resource a DoS attack burns (paper §1, §4).
          consume_budget(bs.channel);
          c_.datagrams_read->inc();
          cm.read->inc();
        }
        ++drained;
        try {
          parse_into(bs.channel, dgram, disposition, sec);
        } catch (const util::DecodeError&) {
          c_.decode_errors->inc();
          cm.decode_errors->inc();
          if (cfg_.scoring.enabled) {
            // A malformed frame naming a known peer is weak (frameable)
            // evidence against that peer.
            if (auto claimed = peek_sender(util::ByteSpan(dgram.payload))) {
              score_.on_decode_error(*claimed);
            }
          }
          trace(obs::EventKind::kDecodeError,
                static_cast<std::uint32_t>(bs.channel));
        }
      }
      if (got < want) break;  // queue empty
    }
  }
  // Queue drain depth: how much backlog one sweep found. Zero-drain sweeps
  // (the overwhelming majority between events) are not recorded — the
  // histogram describes backlog when there was one.
  if (drained) h_poll_drained_->record(drained);
}

void Node::parse_into(Channel channel, const net::Datagram& dgram,
                      ingress::Disposition disposition,
                      ingress::NodeSection& sec) {
  util::ByteSpan wire(dgram.payload);
  ingress::VerifiedFrame f;
  f.channel = channel;
  f.disposition = disposition;
  switch (channel) {
    case Channel::kPullReq: {
      auto req = decode_pull_request(wire, cfg_.max_digest);
      const Peer* peer = resolve_sender(req.sender, req.cert);
      if (!peer) return;
      trace(obs::EventKind::kPullReqRecv, req.sender);
      f.sender = req.sender;
      f.host = peer->host;
      f.digest = std::move(req.digest);
      f.boxed_port = std::move(req.boxed_reply_port);
      break;
    }
    case Channel::kOffer: {
      auto offer = decode_push_offer(wire);
      const Peer* peer = resolve_sender(offer.sender, offer.cert);
      if (!peer) return;
      trace(obs::EventKind::kOfferRecv, offer.sender);
      f.sender = offer.sender;
      f.host = peer->host;
      f.boxed_port = std::move(offer.boxed_reply_port);
      break;
    }
    case Channel::kPushReply: {
      auto reply = decode_push_reply(wire, cfg_.max_digest);
      const Peer* peer = find_peer(reply.sender);
      if (!peer || reply.sender == cfg_.id) {
        c_.unknown_sender->inc();
        return;
      }
      trace(obs::EventKind::kPushReplyRecv, reply.sender);
      f.sender = reply.sender;
      f.host = peer->host;
      f.digest = std::move(reply.digest);
      f.boxed_port = std::move(reply.boxed_data_port);
      break;
    }
    case Channel::kPullData:
    case Channel::kPushData: {
      const bool is_pull_reply = channel == Channel::kPullData;
      std::vector<DataMessage> msgs;
      if (is_pull_reply) {
        auto reply =
            decode_pull_reply(wire, cfg_.max_msgs_per_gossip, cfg_.max_payload);
        f.sender = reply.sender;
        msgs = std::move(reply.messages);
      } else {
        auto push =
            decode_push_data(wire, cfg_.max_msgs_per_gossip, cfg_.max_payload);
        f.sender = push.sender;
        msgs = std::move(push.messages);
      }
      trace(is_pull_reply ? obs::EventKind::kPullReplyRecv
                          : obs::EventKind::kPushDataRecv,
            f.sender, static_cast<std::uint32_t>(msgs.size()));
      // Stage-A sanity checks (paper §4): dedupe against the buffer, then
      // known source (possibly admitted via its §10 piggybacked
      // certificate). Survivors become candidates for the batch-wide
      // Ed25519 pass; ingest() re-checks `seen` so cross-frame duplicates
      // within one batch still count as duplicates, never as forgeries.
      f.candidates.reserve(msgs.size());
      for (auto& msg : msgs) {
        if (buffer_.seen(msg.id)) {
          c_.duplicates->inc();
          continue;
        }
        const Peer* source = msg.id.source == cfg_.id
                                 ? find_peer(msg.id.source)
                                 : resolve_sender(msg.id.source, msg.cert);
        if (!source) continue;
        ingress::DataCandidate cand;
        cand.needs_verify = cfg_.verify_signatures;
        if (cand.needs_verify) {
          // Copied, not pointed-to: resolve_sender may admit a certificate
          // and reallocate the peer directory before verify() runs.
          cand.pub = source->sign_pub;
          cand.signed_bytes = msg.signed_bytes();
        }
        cand.msg = std::move(msg);
        f.candidates.push_back(std::move(cand));
      }
      break;
    }
  }
  if (f.channel != Channel::kPullData && f.channel != Channel::kPushData) {
    if (const auto it = pair_keys_.find(f.sender); it != pair_keys_.end()) {
      // 32-byte copy: update_peers() may drop the cached key before
      // verify() runs.
      f.box_key = it->second;
    } else {
      // First contact, over budget or not: verify() derives the key in the
      // batch's pooled call, once per sender however many frames name it.
      f.derive_from = dir()[f.sender].dh_pub;
      auto& pending = sec.pending_keys;
      if (std::none_of(pending.begin(), pending.end(),
                       [&](const ingress::PendingKey& p) {
                         return p.peer == f.sender;
                       })) {
        if (pending.empty()) c_.pair_key_batches->inc();
        pending.push_back({f.sender, *f.derive_from});
        c_.pair_keys_derived->inc();
      }
    }
  }
  sec.frames.push_back(std::move(f));
}

void Node::ingest(std::span<ingress::VerifiedFrame> frames) {
  EntryGuard entry(entry_owner_);
  DRUM_REQUIRE(!in_poll_,
               "ingest() re-entered (delivery callback drove node?)");
  ReentryGuard guard(in_poll_);
  for (auto& f : frames) {
    if (f.derive_from) {
      // A first contact's key, derived by verify(): cached whatever the box
      // said, since it belongs to the directory's key for the peer, not to
      // the frame, so later frames naming the peer derive nothing. Not if
      // update_peers() replaced that key between the stages.
      const Peer* peer = find_peer(f.sender);
      if (peer && peer->dh_pub == *f.derive_from) {
        pair_keys_.try_emplace(f.sender, f.box_key);
      }
    }
    switch (f.channel) {
      case Channel::kPullReq:
        apply_pull_request(f);
        break;
      case Channel::kOffer:
        apply_push_offer(f);
        break;
      case Channel::kPushReply:
        apply_push_reply(f);
        break;
      case Channel::kPullData:
      case Channel::kPushData:
        apply_data(f);
        break;
    }
  }
  // All replies staged by the handlers above leave in one scatter call.
  flush_egress();
}

void Node::queue_send(const net::Address& to, util::Bytes&& payload) {
  egress_.emplace_back(to, std::move(payload));
}

void Node::flush_egress() {
  if (egress_.empty()) return;
  // Small stack-friendly staging of spans over the owned payloads; the
  // Bytes in egress_ stay alive until send_many returns.
  std::vector<net::OutboundDatagram> out;
  out.reserve(egress_.size());
  for (const auto& [to, payload] : egress_) {
    out.push_back(net::OutboundDatagram{to, util::ByteSpan(payload)});
  }
  sockets_.front().sock->send_many(out.data(), out.size());
  egress_.clear();  // keeps capacity for the next cycle
}

void Node::apply_pull_request(const ingress::VerifiedFrame& f) {
  if (!f.port) {
    c_.box_failures->inc();  // fabricated or corrupted request
    trace(obs::EventKind::kBoxFailure, f.sender);
    if (cfg_.scoring.enabled) score_.on_decode_error(f.sender);
    return;
  }
  if (cfg_.scoring.enabled) {
    // A valid box proves pair-key possession: this arrival is attributable
    // beyond framing. Overuse past the per-round allowance is the
    // budget-exhaustion signal; if it just tripped the greylist, stop
    // serving immediately.
    score_.on_control_arrival(f.sender);
    if (score_.greylisted(f.sender)) return;
  }
  if (f.disposition == ingress::Disposition::kAckOnly) {
    // Past this round's budget: answer with the empty ack instead of data.
    // Serving is what the bound protects; the ack is a constant-size send
    // already capped by the read multiplier.
    c_.score_overflow_acks->inc();
    queue_send(net::Address{f.host, *f.port}, encode_pull_reply(cfg_.id, {}));
    return;
  }
  auto msgs = buffer_.select_missing(f.digest, cfg_.max_msgs_per_gossip, rng_);
  c_.pull_requests_served->inc();
  if (msgs.empty()) {
    if (cfg_.scoring.enabled) {
      // Protocol extension: acknowledge valid pull requests even when we
      // hold nothing, so requesters' futility signal only accrues at black
      // holes and saturated victims, never at honest idle peers.
      queue_send(net::Address{f.host, *f.port},
                 encode_pull_reply(cfg_.id, {}));
    }
    return;
  }
  trace(obs::EventKind::kPullReplySend, f.sender,
        static_cast<std::uint32_t>(msgs.size()));
  // The reply goes to the requester's random (boxed) port; it rides the
  // cycle's scatter batch (flush_egress). encode_pull_reply serializes
  // straight from the buffer-owned messages — no copies.
  queue_send(net::Address{f.host, *f.port}, encode_pull_reply(cfg_.id, msgs));
}

void Node::apply_push_offer(const ingress::VerifiedFrame& f) {
  if (!f.port) {
    c_.box_failures->inc();
    trace(obs::EventKind::kBoxFailure, f.sender);
    if (cfg_.scoring.enabled) score_.on_decode_error(f.sender);
    return;
  }
  if (cfg_.scoring.enabled) {
    score_.on_control_arrival(f.sender);
    if (score_.greylisted(f.sender)) return;
  }
  if (f.disposition == ingress::Disposition::kScoreOnly) {
    return;  // over-budget arrival: attributed, never answered
  }
  // The sender can vanish from the directory between stages (dynamic
  // membership); sealing needs its current DH key, so re-check.
  if (!find_peer(f.sender)) return;
  c_.push_offers_answered->inc();
  trace(obs::EventKind::kPushReplySend, f.sender);
  PushReply reply;
  reply.sender = cfg_.id;
  reply.digest = buffer_.digest();
  reply.boxed_data_port =
      crypto::portbox_seal_port(pair_key(f.sender), cur_push_data_port_, rng_);
  queue_send(net::Address{f.host, *f.port}, encode(reply));
}

void Node::apply_push_reply(const ingress::VerifiedFrame& f) {
  if (!f.port) {
    c_.box_failures->inc();
    trace(obs::EventKind::kBoxFailure, f.sender);
    return;
  }
  auto msgs = buffer_.select_missing(f.digest, cfg_.max_msgs_per_gossip, rng_);
  c_.push_replies_acted->inc();
  if (msgs.empty()) return;
  trace(obs::EventKind::kPushDataSend, f.sender,
        static_cast<std::uint32_t>(msgs.size()));
  queue_send(net::Address{f.host, *f.port}, encode_push_data(cfg_.id, msgs));
}

void Node::apply_data(ingress::VerifiedFrame& f) {
  const bool is_pull_reply = f.channel == Channel::kPullData;
  if (is_pull_reply && cfg_.scoring.enabled) {
    // Any pull-reply frame (including the empty ack) answers this round's
    // outstanding pull to that peer — the futility streak resets.
    for (auto& [target, answered] : pending_pulls_) {
      if (target == f.sender && !answered) {
        answered = true;
        break;
      }
    }
  }
  if (f.candidates.empty()) return;

  auto accept = [&](DataMessage&& msg) {
    Delivery delivery{msg, msg.round_counter};
    trace(obs::EventKind::kDeliver, msg.id.source,
          static_cast<std::uint32_t>(msg.id.seqno));
    buffer_.insert(std::move(msg), round_);
    c_.delivered->inc();
    if (on_deliver_) on_deliver_(delivery);
  };

  // Pass 1 — batch-window dedupe: a message accepted from an EARLIER frame
  // of this batch (after this frame was drained) makes this copy a
  // duplicate. The one-at-a-time path never signature-checked such copies
  // (its per-datagram pass 1 ran after the earlier datagram delivered), so
  // the verify() verdict is deliberately ignored here — a corrupt-signature
  // duplicate counts as a duplicate, not a forgery, keeping blame
  // attribution byte-identical with the unbatched path.
  std::vector<char> dup(f.candidates.size(), 0);
  for (std::size_t i = 0; i < f.candidates.size(); ++i) {
    if (buffer_.seen(f.candidates[i].msg.id)) {
      c_.duplicates->inc();
      dup[i] = 1;
    }
  }

  // Pass 2 — apply verdicts and deliver in arrival order. Each verdict
  // matches what a one-by-one crypto::ed25519_verify would say (bad
  // signatures are attributed exactly; see api.hpp).
  for (std::size_t i = 0; i < f.candidates.size(); ++i) {
    if (dup[i]) continue;
    ingress::DataCandidate& cand = f.candidates[i];
    if (cand.needs_verify && !cand.verified) {
      c_.sig_failures->inc();
      trace(obs::EventKind::kSigFailure, cand.msg.id.source);
      // Attribute the bad signature to whoever FORWARDED the frame (the
      // frame sender), not the claimed message source — the source field is
      // attacker-chosen, the forwarding peer relayed garbage.
      if (cfg_.scoring.enabled) score_.on_decode_error(f.sender);
      continue;
    }
    // Re-check: the same id can appear twice in one datagram, and a
    // delivery callback may have originated messages meanwhile.
    if (buffer_.seen(cand.msg.id)) {
      c_.duplicates->inc();
      continue;
    }
    accept(std::move(cand.msg));
  }
}

void Node::rotate_random_ports() {
  // Retire expired random sockets, telling the runtime hook first so an
  // event loop can drop its registration before the socket dies. An
  // unwatched socket has no registration left to drop.
  std::erase_if(sockets_, [&](const BoundSocket& bs) {
    const bool expire = !bs.well_known &&
                        bs.created_round + cfg_.port_lifetime_rounds <=
                            round_;
    if (expire && bs.watched && socket_hook_) {
      socket_hook_(*bs.sock, /*watch=*/false);
    }
    return expire;
  });
  auto bind_random = [&](Channel ch) -> std::uint16_t {
    auto res = transport_.bind(0);
    if (!res) return 0;
    std::uint16_t port = res->local().port;
    auto sock = res.take();
    if (socket_hook_) socket_hook_(*sock, /*watch=*/true);
    sockets_.push_back(BoundSocket{std::move(sock), ch, round_, false});
    return port;
  };
  if (cfg_.pull_enabled() && cfg_.variant != Variant::kDrumWkPorts) {
    cur_pull_reply_port_ = bind_random(Channel::kPullData);
  }
  if (cfg_.push_enabled()) {
    cur_push_reply_port_ = bind_random(Channel::kPushReply);
    cur_push_data_port_ = bind_random(Channel::kPushData);
  }
}

void Node::send_gossip() {
  // Candidate gossip partners: present peers other than ourselves. With
  // scoring on, greylisted peers are excluded from view selection (they get
  // no gossip slots from us); if that would empty the candidate set, fall
  // back to the unfiltered directory rather than going silent.
  std::vector<std::uint32_t> candidates;
  candidates.reserve(dir().size());
  const bool filter = cfg_.scoring.enabled;
  for (const auto& p : dir()) {
    if (!p.present || p.id == cfg_.id) continue;
    if (filter && score_.greylisted(p.id)) continue;
    candidates.push_back(p.id);
  }
  if (candidates.empty() && filter) {
    for (const auto& p : dir()) {
      if (p.present && p.id != cfg_.id) candidates.push_back(p.id);
    }
  }
  if (candidates.empty()) return;
  const auto nc = static_cast<std::uint32_t>(candidates.size());

  std::vector<std::uint32_t> pull_view, push_view;
  if (cfg_.pull_enabled()) {
    pull_view =
        rng_.sample(nc, static_cast<std::uint32_t>(cfg_.view_pull()), nc);
  }
  if (cfg_.push_enabled()) {
    push_view =
        rng_.sample(nc, static_cast<std::uint32_t>(cfg_.view_push()), nc);
  }
  // Every target not met before gets its pair key from one batch, a target
  // in both views once.
  std::vector<std::uint32_t> uncached;
  for (const auto* view : {&pull_view, &push_view}) {
    for (const std::uint32_t idx : *view) {
      const std::uint32_t t = candidates[idx];
      if (!pair_keys_.contains(t) &&
          std::find(uncached.begin(), uncached.end(), t) == uncached.end()) {
        uncached.push_back(t);
      }
    }
  }
  derive_pair_keys(uncached);

  if (!pull_view.empty()) {
    Digest digest = buffer_.digest();
    for (auto idx : pull_view) {
      std::uint32_t t = candidates[idx];
      PullRequest req;
      req.sender = cfg_.id;
      req.digest = digest;
      req.cert = own_cert_;
      req.boxed_reply_port =
          crypto::portbox_seal_port(pair_key(t), cur_pull_reply_port_, rng_);
      trace(obs::EventKind::kPullReqSend, t);
      if (cfg_.scoring.enabled) pending_pulls_.emplace_back(t, false);
      queue_send(net::Address{dir()[t].host, dir()[t].wk_pull_port},
                 encode(req));
    }
  }
  for (auto idx : push_view) {
    std::uint32_t t = candidates[idx];
    PushOffer offer;
    offer.sender = cfg_.id;
    offer.cert = own_cert_;
    offer.boxed_reply_port =
        crypto::portbox_seal_port(pair_key(t), cur_push_reply_port_, rng_);
    trace(obs::EventKind::kOfferSend, t);
    queue_send(net::Address{dir()[t].host, dir()[t].wk_offer_port},
               encode(offer));
  }
  // One scatter call for the whole round's fan-out: pull requests + offers
  // leave in a single network transaction instead of one lock/syscall each.
  flush_egress();
}

void Node::on_round() {
  EntryGuard entry(entry_owner_);
  DRUM_REQUIRE(!in_round_, "on_round() re-entered");
  DRUM_REQUIRE(!in_poll_, "on_round() called from inside an ingress stage");
  ReentryGuard guard(in_round_);

  // Final processing pass for the ending round: anything that arrived since
  // the last ingress sweep is still "this round's" input and deserves its
  // shot at the remaining budgets (the Java implementation reads
  // continuously; this keeps coarse drivers that drain rarely faithful to
  // that).
  poll_cycle();

  record_round_budgets();

  if (cfg_.scoring.enabled) {
    // Settle this round's outgoing pulls: anything still unanswered feeds
    // the futility streak of its target.
    for (const auto& [target, answered] : pending_pulls_) {
      score_.on_pull_outcome(target, answered);
    }
    pending_pulls_.clear();
  }

  ++round_;
  c_.rounds->inc();
  trace(obs::EventKind::kRoundTick,
        static_cast<std::uint32_t>(round_ & 0xFFFFFFFFull));

  // Discard all unread messages from the incoming buffers (paper §4) —
  // anything beyond this round's budgets, i.e. mostly the flood. (The
  // discard_unread=false ablation keeps the backlog instead; see config.)
  if (cfg_.discard_unread) {
    for (auto& bs : sockets_) {
      const std::size_t flushed = bs.sock->discard();
      if (flushed) {
        c_.flushed_unread->inc(flushed);
        chan_[static_cast<int>(bs.channel)].flushed_unread->inc(flushed);
        trace(obs::EventKind::kFlushUnread,
              static_cast<std::uint32_t>(bs.channel),
              static_cast<std::uint32_t>(flushed));
      }
    }
  }
  used_.fill(0);
  shared_control_used_ = 0;

  if (cfg_.scoring.enabled) {
    score_.begin_round(round_);
    g_score_greylisted_->set(
        static_cast<double>(score_.currently_greylisted()));
    g_score_entries_->set(static_cast<double>(score_.greylist_entries()));
    g_score_pen_decode_->set(static_cast<double>(score_.penalties_decode()));
    g_score_pen_overuse_->set(
        static_cast<double>(score_.penalties_overuse()));
    g_score_pen_futility_->set(
        static_cast<double>(score_.penalties_futility()));
  }

  buffer_.on_round(round_);
  rotate_random_ports();
  // Fresh budgets: watch again what this round's drains set aside.
  for (auto& bs : sockets_) set_watched(bs, true);
  send_gossip();

  check_invariants();
}

void Node::check_invariants() const {
#if DRUM_CHECKED
  // Budget accounting: nothing spends past its bound, and disabled channels
  // never see traffic (no socket is bound for them).
  for (int i = 0; i < 5; ++i) {
    const auto c = static_cast<Channel>(i);
    if (cfg_.variant == Variant::kDrumSharedBounds && is_control(c)) continue;
    const std::size_t used = used_[static_cast<std::size_t>(i)];
    DRUM_INVARIANT(used <= channel_budget(c), "channel ", kChannelNames[i],
                   " over budget: ", used, "/", channel_budget(c));
  }
  DRUM_INVARIANT(shared_control_used_ <= cfg_.shared_control_budget(),
                 "joint control budget over-spent");

  // Directory: non-null, indexed by id, our own entry present.
  DRUM_INVARIANT(peers_ != nullptr, "peer directory must never be null");
  DRUM_INVARIANT(cfg_.id < dir().size() && dir()[cfg_.id].present,
                 "own directory entry missing");
  for (std::size_t i = 0; i < dir().size(); ++i) {
    DRUM_INVARIANT(!dir()[i].present || dir()[i].id == i,
                   "directory not indexed by id at slot ", i);
  }

  // Socket/port round-state: the well-known sockets bound at construction
  // stay first and alive; random sockets never outlive their rotation
  // window; the wk-ports ablation pins the pull-reply port.
  DRUM_INVARIANT(!sockets_.empty() && sockets_.front().well_known,
                 "well-known sockets must head the socket list");
  for (const auto& bs : sockets_) {
    DRUM_INVARIANT(bs.sock != nullptr, "null socket in socket list");
    DRUM_INVARIANT(bs.well_known ||
                       bs.created_round + cfg_.port_lifetime_rounds > round_,
                   "random socket outlived its lifetime");
  }
  if (cfg_.variant == Variant::kDrumWkPorts) {
    DRUM_INVARIANT(cur_pull_reply_port_ == cfg_.wk_pull_reply_port,
                   "wk-ports ablation must keep the fixed pull-reply port");
  }

  if (cfg_.scoring.enabled) {
    DRUM_INVARIANT(score_.size() >= dir().size(),
                   "score table lags the peer directory");
    score_.check_invariants();
  }

  buffer_.check_invariants(round_);
#endif
}

void Node::set_own_certificate(util::Bytes own_cert) {
  own_cert_ = std::move(own_cert);
}

void Node::set_cert_validator(CertValidator validator) {
  cert_validator_ = std::move(validator);
}

MessageId Node::multicast(util::ByteSpan payload) {
  EntryGuard entry(entry_owner_);
  DataMessage msg;
  msg.id = MessageId{cfg_.id, next_seqno_++};
  msg.payload.assign(payload.begin(), payload.end());
  msg.cert = own_cert_;  // §10 piggybacking (empty when not enabled)
  msg.signature = identity_.sign(util::ByteSpan(msg.signed_bytes()));
  // Paper §8.1: the source logs 0 and immediately advances the counter to 1.
  msg.round_counter = 1;
  buffer_.insert(std::move(msg), round_);
  return MessageId{cfg_.id, next_seqno_ - 1};
}

}  // namespace drum::core
