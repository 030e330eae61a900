// The node's message buffer (paper §4, §8.2): received messages are kept for
// a fixed number of rounds and gossiped while buffered; old messages are
// purged. A longer-lived "seen" set prevents purged messages that come back
// from being re-delivered to the application.
//
// Every message expires a constant number of rounds after its insertion, so
// insertion order is expiry order: the buffer keeps its ids and messages in
// insertion order and the round tick pops what expired from the front,
// without visiting what stays (DESIGN.md §12, "The message buffer").
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "drum/core/message.hpp"
#include "drum/util/rng.hpp"

namespace drum::core {

class MessageBuffer {
 public:
  /// `buffer_rounds`: rounds a message stays gossip-able.
  /// `seen_rounds`: rounds a message id stays in the dedup set (>= buffer).
  MessageBuffer(std::size_t buffer_rounds, std::size_t seen_rounds);

  /// Inserts a new message. Returns false (and does nothing) if the id was
  /// already seen — the dedup step of the paper's "sanity checks".
  /// `current_round` never decreases from one insert to the next.
  bool insert(DataMessage msg, std::uint64_t current_round);

  [[nodiscard]] bool seen(const MessageId& id) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Called once per local round: ages every buffered message by one round
  /// (paper §8.1; applied when the message is next selected) and purges
  /// expired entries / seen ids.
  void on_round(std::uint64_t current_round);

  /// Digest of all currently buffered message ids, oldest first.
  [[nodiscard]] Digest digest() const;

  /// Up to `max_count` random buffered messages whose ids are NOT in
  /// `peer_digest` — the "random subset of missing messages" both push and
  /// pull responses send — with their round counters brought up to date.
  /// Returns pointers into the buffer (no payload copies;
  /// encode_pull_reply/encode_push_data serialize straight from them), valid
  /// until the next insert()/on_round(). The peer's ids are marked in a
  /// reused scratch array, so the messages themselves are touched only when
  /// selected.
  [[nodiscard]] std::vector<const DataMessage*> select_missing(
      const Digest& peer_digest, std::size_t max_count, util::Rng& rng);

  /// drum::check invariants: the seen index and the insertion-ordered ids
  /// agree (so digest() lists exactly the buffered ids, and every buffered
  /// id is still in the seen set — a buffered-but-forgotten message would
  /// be re-delivered on the next copy), rounds are in insertion order, and
  /// no entry or seen id has outlived its expiry given `current_round`.
  /// No-op in Release builds.
  void check_invariants(std::uint64_t current_round) const;

 private:
  struct Entry {
    DataMessage msg;
    /// on_round() calls before msg.round_counter was last brought up to
    /// date: the counter is behind by ticks_ - tick.
    std::uint64_t tick;
  };
  /// The ids inserted in one round, which expire together.
  struct Round {
    std::uint64_t round;
    std::uint64_t end;  // one past the sequence number of its last id
  };

  /// Sequence number of ids_.front() and of entries_.front().
  [[nodiscard]] std::uint64_t first_seen() const {
    return next_seq_ - ids_.size();
  }
  [[nodiscard]] std::uint64_t first_buffered() const {
    return next_seq_ - entries_.size();
  }

  std::size_t buffer_rounds_;
  std::size_t seen_rounds_;
  std::uint64_t ticks_ = 0;     // on_round() calls so far
  std::uint64_t next_seq_ = 0;  // sequence number of the next insert
  /// Every seen id, oldest first; the buffered ones are its newest
  /// entries_.size() ids, in the same order as entries_.
  std::vector<MessageId> ids_;
  std::deque<Entry> entries_;
  std::deque<Round> rounds_;
  /// Seen id -> its sequence number, which locates it in ids_ and, while
  /// buffered, in entries_.
  std::unordered_map<MessageId, std::uint64_t, MessageIdHash> seen_;
  std::vector<char> held_scratch_;  // select_missing: peer holds entry i
  std::vector<std::uint32_t> select_scratch_;  // candidate indices, reused
};

}  // namespace drum::core
