#include "drum/core/ingress.hpp"

#include "drum/core/node.hpp"
#include "drum/crypto/api.hpp"
#include "drum/crypto/portbox.hpp"

namespace drum::core::ingress {

NodeSection& IngressBatch::section_for(Node& node) {
  for (auto& sec : sections_) {
    if (sec.node == &node) return sec;
  }
  sections_.push_back(NodeSection{&node, {}});
  return sections_.back();
}

bool IngressBatch::empty() const {
  for (const auto& sec : sections_) {
    if (!sec.frames.empty()) return false;
  }
  return true;
}

void IngressBatch::clear() { sections_.clear(); }

void IngressBatch::verify() {
  // Gather every pending signature across ALL sections — the whole point of
  // accumulating across co-scheduled nodes is that one worker sweep becomes
  // one wide verify. Port boxes open one at a time as they are met.
  std::vector<crypto::VerifyJob> sig_jobs;
  std::vector<DataCandidate*> sig_targets;
  for (auto& sec : sections_) {
    for (auto& f : sec.frames) {
      if (f.channel == Channel::kPullData || f.channel == Channel::kPushData) {
        for (auto& cand : f.candidates) {
          if (!cand.needs_verify) continue;
          sig_jobs.push_back(crypto::VerifyJob{cand.pub,
                                               util::ByteSpan(cand.signed_bytes),
                                               cand.msg.signature});
          sig_targets.push_back(&cand);
        }
      } else {
        f.port = crypto::portbox_open_port(util::ByteSpan(f.box_key),
                                           util::ByteSpan(f.boxed_port));
      }
    }
  }
  if (!sig_jobs.empty()) {
    const std::vector<bool> verdicts = crypto::ed25519_verify_batch(
        std::span<const crypto::VerifyJob>(sig_jobs));
    for (std::size_t i = 0; i < sig_targets.size(); ++i) {
      sig_targets[i]->verified = verdicts[i];
    }
  }
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
