// Timestamped membership certificates (paper §10): the CA authorizes a
// process, granting a certificate binding its id, keys and well-known ports,
// with an expiry time. Membership lists never contain processes without a
// valid certificate; certificates can be revoked.
#pragma once

#include <cstdint>
#include <optional>

#include "drum/core/node.hpp"
#include "drum/crypto/ed25519.hpp"
#include "drum/util/bytes.hpp"

namespace drum::membership {

struct Certificate {
  std::uint32_t member_id = 0;
  std::uint32_t host = 0;
  std::uint16_t wk_pull_port = 0;
  std::uint16_t wk_offer_port = 0;
  crypto::Ed25519PublicKey sign_pub{};
  crypto::X25519Key dh_pub{};
  std::int64_t issued_at = 0;   ///< CA logical/wall time
  std::int64_t expires_at = 0;  ///< must be renewed before this
  std::uint64_t serial = 0;     ///< CA-unique, increases per issue
  crypto::Ed25519Signature ca_signature{};

  /// Field-wise, so equal certificates have equal encodings.
  bool operator==(const Certificate&) const = default;

  /// The bytes the CA signs (everything except the signature).
  [[nodiscard]] util::Bytes signed_bytes() const;

  [[nodiscard]] bool verify(const crypto::Ed25519PublicKey& ca_pub) const;
  [[nodiscard]] bool expired(std::int64_t now) const { return now >= expires_at; }

  /// Converts to a directory entry for drum::core::Node.
  [[nodiscard]] core::Peer to_peer() const;

  [[nodiscard]] util::Bytes encode() const;
  /// Throws util::DecodeError on malformed input.
  static Certificate decode(util::ByteSpan wire);
};

/// Signed membership events, multicast through Drum itself (§10: "the
/// dynamic membership protocol operates using Drum's multicast protocol as
/// its transport layer", so it inherits Drum's DoS-resistance).
enum class EventType : std::uint8_t {
  kJoin = 1,   ///< carries the new member's certificate
  kLeave = 2,  ///< voluntary log-out; CA revokes the certificate
  kExpel = 3,  ///< CA-initiated revocation (suspected malbehaviour)
};

struct MembershipEvent {
  EventType type = EventType::kJoin;
  std::uint32_t member_id = 0;
  std::uint64_t cert_serial = 0;  ///< serial being granted/revoked
  std::int64_t timestamp = 0;
  std::optional<Certificate> certificate;  ///< present for kJoin
  crypto::Ed25519Signature ca_signature{};

  [[nodiscard]] util::Bytes signed_bytes() const;
  [[nodiscard]] bool verify(const crypto::Ed25519PublicKey& ca_pub) const;
  [[nodiscard]] util::Bytes encode() const;
  static MembershipEvent decode(util::ByteSpan wire);
};

}  // namespace drum::membership
