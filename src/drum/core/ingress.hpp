// The batched ingress stage (DESIGN.md §12): raw datagrams in, typed and
// signature-checked frames out.
//
// The paper's flood attack wins by charging the victim per datagram — a
// syscall, a parse, an HMAC, an Ed25519 check. The ingress pipeline batches
// the syscall and the signature check, and the reception budgets bound how
// many port boxes reach the HMAC at all:
//
//   socket ready ──► Node::drain_ingress(batch)   stage A, node serialized
//                      recv_batch + budgets + greylist peek + decode,
//                      uncached senders recorded as pending pair keys
//                 ──► IngressBatch::verify()       lock-free, no node held
//                      one pooled X25519 call over every pending pair key,
//                      one ed25519_verify_batch over every data signature,
//                      one portbox_open_port per control frame
//                 ──► Node::ingest(frames)         stage B, node serialized
//                      pair-key caching, scoring, greylist, serve/ack,
//                      dedupe, delivery
//
// The seam between A and B is the push-style ingress API: a runtime DRAINS
// frames out of many nodes, verifies everything it is holding in one crypto
// pass (across frames AND across co-scheduled nodes), then PUSHES the
// verified frames back in. Single-node drivers run the three stages
// back-to-back on a private batch (drain_ingress + dispatch()). The
// pooling is across co-hosted nodes only: a node hosted alone derives a
// lone first contact on the scalar ladder.
//
// Budgets are charged at stage A (reading is what the paper's bound meters,
// valid or not), so nothing here lets a node process more than its per-round
// reception budgets — the batch only moves WHERE the crypto runs.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "drum/core/message.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/util/bytes.hpp"

namespace drum::core {

class Node;

/// The five reception channels (paper §4). Shared by Node's socket table and
/// the ingress stage; array indices throughout are static_cast<int>(ch).
enum class Channel { kOffer, kPullReq, kPushReply, kPullData, kPushData };

namespace ingress {

/// recv_batch window per call in stage A — the recvmmsg vlen. Matches the
/// kernel's UIO_FASTIOV fast path so one syscall drains up to 64 datagrams
/// without heap iovec allocation.
inline constexpr std::size_t kRecvChunk = 64;

/// How stage A disposed of a control frame relative to its channel budget.
enum class Disposition {
  kProcess,    ///< in budget: serve it
  kAckOnly,    ///< over-budget pull request: score + empty ack, never serve
  kScoreOnly,  ///< over-budget offer: score for attribution, never answer
};

/// One data message awaiting its share of the batched signature check.
struct DataCandidate {
  DataMessage msg;
  /// Copied (not pointed-to): the peer directory can grow between stages.
  crypto::Ed25519PublicKey pub;
  /// Owns the signed byte string; the VerifyJob only holds a view.
  util::Bytes signed_bytes;
  bool needs_verify = false;  ///< false when cfg.verify_signatures is off
  bool verified = false;      ///< written by IngressBatch::verify()
};

/// One parsed frame, decoded and budget-charged at stage A, crypto-checked
/// by IngressBatch::verify(), applied by Node::ingest(). Fields are a union
/// in spirit: control channels use the boxed-port group, data channels the
/// candidate list.
struct VerifiedFrame {
  Channel channel = Channel::kOffer;
  Disposition disposition = Disposition::kProcess;
  /// Control: the resolved sender id. Data: the frame (forwarding) sender.
  std::uint32_t sender = 0;
  /// Control: sender's host, captured at resolve time so stage B can reply
  /// without re-touching the directory.
  std::uint32_t host = 0;

  // ---- control channels (kOffer, kPullReq, kPushReply) -----------------
  /// The sealed reply/data port from the frame; opened by verify().
  util::Bytes boxed_port;
  /// Pairwise key copy: update_peers() may drop the node's cached key
  /// between stages. Copied from the cache at stage A, or written by
  /// verify() when the cache had none.
  crypto::PortBoxKey box_key{};
  /// Set when stage A found no cached pair key for `sender`: the sender's
  /// X25519 public key as the directory held it then. verify() derives
  /// box_key from it (the section's pending_keys entry), and ingest()
  /// caches that key unless update_peers() replaced the sender's key
  /// between the stages.
  std::optional<crypto::X25519Key> derive_from;
  /// The peer's digest (pull request / push reply); empty for offers.
  Digest digest;
  /// verify()'s verdict: the opened port, or nullopt on a bad/forged box.
  std::optional<std::uint16_t> port;

  // ---- data channels (kPullData, kPushData) ----------------------------
  std::vector<DataCandidate> candidates;
};

/// A pair key stage A found uncached, derived by IngressBatch::verify().
struct PendingKey {
  std::uint32_t peer = 0;
  crypto::X25519Key dh_pub{};
};

/// Frames drained from ONE node, plus where to push them back.
struct NodeSection {
  Node* node = nullptr;
  /// The node's identity, whose X25519 secret derives pending_keys.
  const crypto::Identity& identity;
  std::vector<VerifiedFrame> frames;
  /// The senders of `frames` without a cached pair key, once each.
  std::vector<PendingKey> pending_keys;
};

/// The accumulator a runtime carries across co-scheduled nodes: drain into
/// it while holding each node, verify() once while holding none, then
/// ingest each section back under its node's serialization.
class IngressBatch {
 public:
  /// The section for `node`, creating it on first use. The pointer stays
  /// valid until clear() (sections are stable once created).
  NodeSection& section_for(Node& node);

  /// Runs the accumulated crypto: first every section's pending pair keys
  /// in one Identity::derive_pair_keys call, so the first contacts of
  /// co-scheduled nodes share the four-lane X25519 ladder, each lane under
  /// its own node's secret; then every DataCandidate with needs_verify
  /// through one ed25519_verify_batch (per-signature fallback inside keeps
  /// blame exact), and each control frame's boxed port through
  /// portbox_open_port. Within one node's section, byte-identical copies of
  /// a message — equal public key, signature and signed bytes — share one
  /// signature check and its verdict: one message reaching the node from
  /// several peers in one drain is checked once. Sections never share, so
  /// every node pays for its own checks. The budgets admit only a few
  /// boxes per pass, too few to fill a multi-buffer hash, so boxes open one
  /// at a time.
  /// Touches no Node state — callers must NOT hold any node while in here;
  /// that is the point. Returns the number of signature checks it ran.
  std::size_t verify();

  /// Convenience for single-threaded drivers (Cluster, tests, examples):
  /// verify, then ingest every section into its node, then clear. Callers
  /// that interleave their own locking call the pieces.
  void dispatch();

  [[nodiscard]] std::deque<NodeSection>& sections() { return sections_; }
  [[nodiscard]] bool empty() const;
  void clear();

 private:
  // Deque, not vector: section_for hands out references a runtime holds
  // across later section_for calls, so growth must not relocate.
  std::deque<NodeSection> sections_;
};

}  // namespace ingress
}  // namespace drum::core
