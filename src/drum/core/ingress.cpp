#include "drum/core/ingress.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "drum/core/node.hpp"
#include "drum/crypto/api.hpp"
#include "drum/crypto/portbox.hpp"

namespace drum::core::ingress {

NodeSection& IngressBatch::section_for(Node& node) {
  for (auto& sec : sections_) {
    if (sec.node == &node) return sec;
  }
  sections_.push_back(NodeSection{&node, node.identity(), {}, {}});
  return sections_.back();
}

bool IngressBatch::empty() const {
  for (const auto& sec : sections_) {
    if (!sec.frames.empty()) return false;
  }
  return true;
}

void IngressBatch::clear() { sections_.clear(); }

std::size_t IngressBatch::verify() {
  // Every section's first contacts in one pooled call, before any box
  // opens: the keys of co-scheduled nodes fill the X25519 lanes together.
  std::vector<crypto::PairKeyRequest> requests;
  for (const auto& sec : sections_) {
    for (const PendingKey& p : sec.pending_keys) {
      requests.push_back({&sec.identity, p.dh_pub});
    }
  }
  const std::vector<util::Bytes> keys =
      crypto::Identity::derive_pair_keys(requests);
  std::size_t section_keys = 0;  // the current section's first entry in keys

  // Gather every pending signature across ALL sections — the whole point of
  // accumulating across co-scheduled nodes is that one worker sweep becomes
  // one wide verify. Port boxes open one at a time as they are met.
  std::vector<crypto::VerifyJob> sig_jobs;
  // Each candidate and the index of the job that decides it.
  std::vector<std::pair<DataCandidate*, std::size_t>> sig_targets;
  std::vector<DataCandidate*> section;
  // Ordered by (signature, key, signed bytes), so copies end up adjacent.
  auto before = [](const DataCandidate* a, const DataCandidate* b) {
    return std::tie(a->msg.signature, a->pub, a->signed_bytes) <
           std::tie(b->msg.signature, b->pub, b->signed_bytes);
  };
  for (auto& sec : sections_) {
    section.clear();
    for (auto& f : sec.frames) {
      if (f.channel == Channel::kPullData || f.channel == Channel::kPushData) {
        for (auto& cand : f.candidates) {
          if (cand.needs_verify) section.push_back(&cand);
        }
      } else {
        if (f.derive_from) {
          const auto pending = std::find_if(
              sec.pending_keys.begin(), sec.pending_keys.end(),
              [&](const PendingKey& p) { return p.peer == f.sender; });
          const util::Bytes& key =
              keys[section_keys + static_cast<std::size_t>(
                                      pending - sec.pending_keys.begin())];
          std::copy_n(key.begin(), f.box_key.size(), f.box_key.begin());
        }
        f.port = crypto::portbox_open_port(util::ByteSpan(f.box_key),
                                           util::ByteSpan(f.boxed_port));
      }
    }
    section_keys += sec.pending_keys.size();
    std::sort(section.begin(), section.end(), before);
    for (std::size_t i = 0; i < section.size(); ++i) {
      DataCandidate& cand = *section[i];
      if (i == 0 || before(section[i - 1], section[i])) {
        sig_jobs.push_back(crypto::VerifyJob{cand.pub,
                                             util::ByteSpan(cand.signed_bytes),
                                             cand.msg.signature});
      }
      sig_targets.emplace_back(&cand, sig_jobs.size() - 1);
    }
  }
  if (!sig_jobs.empty()) {
    const std::vector<bool> verdicts = crypto::ed25519_verify_batch(
        std::span<const crypto::VerifyJob>(sig_jobs));
    for (const auto& [cand, job] : sig_targets) cand->verified = verdicts[job];
  }
  return sig_jobs.size();
}

void IngressBatch::dispatch() {
  verify();
  for (auto& sec : sections_) {
    if (sec.frames.empty()) continue;
    sec.node->ingest(std::span<VerifiedFrame>(sec.frames));
  }
  clear();
}

}  // namespace drum::core::ingress
