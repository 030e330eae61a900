// The local membership table (paper §10): each process's validated view of
// the group, built exclusively from CA-signed events. Fabricated membership
// information is rejected ("every join/leave/expel message contains a
// certificate issued by the CA"); certificates expire; revoked serials are
// remembered so a replayed old kJoin cannot resurrect an expelled member.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "drum/membership/certificate.hpp"

namespace drum::membership {

class MembershipTable {
 public:
  explicit MembershipTable(crypto::Ed25519PublicKey ca_pub);

  /// Applies a CA-signed event; returns false (table unchanged) if the
  /// signature is invalid, the event is stale (serial <= a revoked or
  /// superseded serial), or the certificate is already expired.
  bool apply(const MembershipEvent& event, std::int64_t now);

  /// Seeds the table from an initial roster (the list a newcomer gets from
  /// the CA). Invalid certificates are skipped; returns how many were
  /// accepted.
  std::size_t seed_roster(const std::vector<Certificate>& roster,
                          std::int64_t now);

  /// Drops expired certificates; call periodically with the current time.
  void prune_expired(std::int64_t now);

  [[nodiscard]] bool is_member(std::uint32_t id, std::int64_t now) const;
  /// The stored (CA-verified) certificate of member `id` if it is live at
  /// `now`, else nullptr. Valid until the table next changes.
  [[nodiscard]] const Certificate* find(std::uint32_t id,
                                        std::int64_t now) const;
  [[nodiscard]] std::size_t size() const { return certs_.size(); }

  /// Builds the id-indexed directory for drum::core::Node. `max_id_hint`
  /// grows the vector so future joins with larger ids fit (Node requires
  /// index == id).
  [[nodiscard]] std::vector<core::Peer> directory(
      std::int64_t now, std::uint32_t max_id_hint = 0) const;

 private:
  crypto::Ed25519PublicKey ca_pub_;
  std::map<std::uint32_t, Certificate> certs_;
  std::set<std::uint64_t> revoked_serials_;
};

}  // namespace drum::membership
