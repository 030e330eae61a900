#include "drum/membership/table.hpp"

namespace drum::membership {

MembershipTable::MembershipTable(crypto::Ed25519PublicKey ca_pub)
    : ca_pub_(ca_pub) {}

bool MembershipTable::apply(const MembershipEvent& event, std::int64_t now) {
  if (!event.verify(ca_pub_)) return false;

  switch (event.type) {
    case EventType::kJoin: {
      const Certificate& cert = *event.certificate;
      if (cert.expired(now)) return false;
      if (revoked_serials_.contains(cert.serial)) return false;  // replay
      auto it = certs_.find(cert.member_id);
      if (it != certs_.end() && it->second.serial >= cert.serial) {
        return false;  // stale: we already have a newer certificate
      }
      certs_[cert.member_id] = cert;
      return true;
    }
    case EventType::kLeave:
    case EventType::kExpel: {
      revoked_serials_.insert(event.cert_serial);
      auto it = certs_.find(event.member_id);
      if (it != certs_.end() && it->second.serial <= event.cert_serial) {
        certs_.erase(it);
        return true;
      }
      return it == certs_.end();  // idempotent removal is fine
    }
  }
  return false;
}

std::size_t MembershipTable::seed_roster(const std::vector<Certificate>& roster,
                                         std::int64_t now) {
  std::size_t accepted = 0;
  for (const auto& cert : roster) {
    if (!cert.verify(ca_pub_)) continue;
    if (cert.expired(now)) continue;
    if (revoked_serials_.contains(cert.serial)) continue;
    auto it = certs_.find(cert.member_id);
    if (it != certs_.end() && it->second.serial >= cert.serial) continue;
    certs_[cert.member_id] = cert;
    ++accepted;
  }
  return accepted;
}

void MembershipTable::prune_expired(std::int64_t now) {
  for (auto it = certs_.begin(); it != certs_.end();) {
    it = it->second.expired(now) ? certs_.erase(it) : std::next(it);
  }
}

bool MembershipTable::is_member(std::uint32_t id, std::int64_t now) const {
  return find(id, now) != nullptr;
}

const Certificate* MembershipTable::find(std::uint32_t id,
                                         std::int64_t now) const {
  auto it = certs_.find(id);
  return it != certs_.end() && !it->second.expired(now) ? &it->second
                                                        : nullptr;
}

std::vector<core::Peer> MembershipTable::directory(
    std::int64_t now, std::uint32_t max_id_hint) const {
  std::uint32_t max_id = max_id_hint;
  for (const auto& [id, cert] : certs_) max_id = std::max(max_id, id);
  std::vector<core::Peer> dir(max_id + 1);
  for (std::uint32_t id = 0; id <= max_id; ++id) {
    dir[id].id = id;
    dir[id].present = false;
  }
  for (const auto& [id, cert] : certs_) {
    if (!cert.expired(now)) dir[id] = cert.to_peer();
  }
  return dir;
}

}  // namespace drum::membership
