#include "drum/core/buffer.hpp"

#include <algorithm>

#include "drum/check/check.hpp"

namespace drum::core {

MessageBuffer::MessageBuffer(std::size_t buffer_rounds,
                             std::size_t seen_rounds)
    : buffer_rounds_(buffer_rounds),
      seen_rounds_(std::max(seen_rounds, buffer_rounds)) {}

bool MessageBuffer::insert(DataMessage msg, std::uint64_t current_round) {
  if (seen(msg.id)) return false;
  DRUM_REQUIRE(rounds_.empty() || rounds_.back().round <= current_round,
               "insert round went backwards: ", current_round, " after ",
               rounds_.back().round);
  const std::uint64_t seq = next_seq_++;
  seen_.emplace(msg.id, seq);
  ids_.push_back(msg.id);
  if (rounds_.empty() || rounds_.back().round != current_round) {
    rounds_.push_back({current_round, next_seq_});
  } else {
    rounds_.back().end = next_seq_;
  }
  entries_.push_back(Entry{std::move(msg), ticks_});
  return true;
}

bool MessageBuffer::seen(const MessageId& id) const {
  if (seen_.contains(id)) return true;  // most duplicates stop here
  auto floor = floor_.find(id.source);
  return floor != floor_.end() && id.seqno < floor->second;
}

void MessageBuffer::on_round(std::uint64_t current_round) {
  ++ticks_;
  // Rounds are oldest first, and the buffer expires before the seen set, so
  // both purges drop a prefix.
  std::uint64_t buffered_end = first_buffered();
  for (const Round& r : rounds_) {
    if (r.round + buffer_rounds_ > current_round) break;
    buffered_end = std::max(buffered_end, r.end);
  }
  for (std::uint64_t s = first_buffered(); s < buffered_end; ++s) {
    entries_.pop_front();
  }
  std::uint64_t seen_end = first_seen();
  while (!rounds_.empty() &&
         rounds_.front().round + seen_rounds_ <= current_round) {
    seen_end = rounds_.front().end;
    rounds_.pop_front();
  }
  const auto expired = static_cast<std::ptrdiff_t>(seen_end - first_seen());
  for (auto it = ids_.begin(); it != ids_.begin() + expired; ++it) {
    seen_.erase(*it);
    std::uint64_t& floor = floor_[it->source];
    floor = std::max(floor, it->seqno + 1);
  }
  ids_.erase(ids_.begin(), ids_.begin() + expired);
}

void MessageBuffer::check_invariants(
    [[maybe_unused]] std::uint64_t current_round) const {
#if DRUM_CHECKED
  DRUM_INVARIANT(seen_.size() == ids_.size(), "seen index/id list mismatch: ",
                 seen_.size(), " vs ", ids_.size());
  DRUM_INVARIANT(entries_.size() <= ids_.size(),
                 "buffered message missing from seen set: ", entries_.size(),
                 " buffered, ", ids_.size(), " seen");
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    auto it = seen_.find(ids_[i]);
    DRUM_INVARIANT(it != seen_.end() && it->second == first_seen() + i,
                   "seen id indexed at the wrong position: source ",
                   ids_[i].source, " seqno ", ids_[i].seqno);
  }
  const std::size_t offset = ids_.size() - entries_.size();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    DRUM_INVARIANT(entries_[i].msg.id == ids_[offset + i],
                   "entry out of insertion order");
  }
  std::uint64_t prev_end = 0;
  for (std::size_t i = 0; i < rounds_.size(); ++i) {
    const Round& r = rounds_[i];
    DRUM_INVARIANT(r.end > prev_end && (i == 0 || r.round > rounds_[i - 1].round),
                   "rounds out of insertion order");
    DRUM_INVARIANT(r.round + seen_rounds_ > current_round,
                   "expired seen ids survived purge: inserted ", r.round,
                   " round ", current_round);
    // The round holding the oldest buffered entry must not have expired.
    if (!entries_.empty() && r.end > first_buffered() &&
        prev_end <= first_buffered()) {
      DRUM_INVARIANT(r.round + buffer_rounds_ > current_round,
                     "expired entry survived purge: inserted ", r.round,
                     " round ", current_round);
    }
    prev_end = r.end;
  }
  DRUM_INVARIANT(ids_.empty() || (!rounds_.empty() && prev_end == next_seq_),
                 "rounds do not cover the seen ids");
#endif
}

Digest MessageBuffer::digest() const {
  return Digest(ids_.end() - static_cast<std::ptrdiff_t>(entries_.size()),
                ids_.end());
}

std::vector<const DataMessage*> MessageBuffer::select_missing(
    const Digest& peer_digest, std::size_t max_count, util::Rng& rng) {
  // Mark what the peer holds (one hash lookup per digest id), then collect
  // the unmarked indices — no temporary digest set, no payload copies.
  const std::uint64_t first = first_buffered();
  std::vector<char>& held = held_scratch_;
  held.assign(entries_.size(), 0);
  std::size_t held_count = 0;
  for (const auto& id : peer_digest) {
    auto it = seen_.find(id);
    if (it == seen_.end() || it->second < first) continue;
    char& h = held[it->second - first];
    held_count += h ? 0 : 1;
    h = 1;
  }
  std::vector<std::uint32_t>& candidates = select_scratch_;
  candidates.clear();
  if (held_count < entries_.size()) {
    for (std::size_t i = 0; i < held.size(); ++i) {
      if (!held[i]) candidates.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Random subset (partial Fisher-Yates over the scratch's head).
  const std::size_t take = std::min(max_count, candidates.size());
  std::vector<const DataMessage*> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    std::size_t j = i + rng.below(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
    Entry& e = entries_[candidates[i]];
    e.msg.round_counter += static_cast<std::uint32_t>(ticks_ - e.tick);
    e.tick = ticks_;
    out.push_back(&e.msg);
  }
  return out;
}

}  // namespace drum::core
