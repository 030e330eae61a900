// Process identity and pairwise key derivation.
//
// Every group member holds:
//   * a long-term Ed25519 identity keypair — signs data messages (source
//     authentication) and is what the CA certifies (paper §3, §10);
//   * a long-term X25519 keypair — yields pairwise symmetric keys under
//     which random ports are encrypted (paper §4).
//
// The paper assumes "standard cryptographic techniques" and a PKI; this
// module is that substrate, built on the from-scratch primitives in this
// directory.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/x25519.hpp"
#include "drum/util/bytes.hpp"
#include "drum/util/rng.hpp"

namespace drum::crypto {

class Identity;

/// One pairwise key to derive: `own`'s X25519 secret with `peer_dh_public`.
struct PairKeyRequest {
  const Identity* own = nullptr;
  X25519Key peer_dh_public{};
};

/// Long-term identity of a process. Generation is deterministic given the
/// RNG so simulated deployments are reproducible.
class Identity {
 public:
  /// Generates fresh Ed25519 + X25519 keypairs from `rng`.
  static Identity generate(util::Rng& rng);

  [[nodiscard]] const Ed25519PublicKey& sign_public() const { return sign_pub_; }
  [[nodiscard]] const X25519Key& dh_public() const { return dh_pub_; }

  /// Signs a message with the identity key.
  [[nodiscard]] Ed25519Signature sign(util::ByteSpan message) const;

  /// Derives the pairwise symmetric key shared with `peer_dh_public`.
  /// Symmetric: derive_pair_key(a, B_pub) == derive_pair_key(b, A_pub).
  /// (X25519 ECDH followed by HKDF with a fixed protocol label.)
  [[nodiscard]] util::Bytes derive_pair_key(const X25519Key& peer_dh_public) const;

  /// request.own->derive_pair_key(request.peer_dh_public) for every
  /// request, in order, with one x25519_batch call over every request's
  /// (secret, peer key) pair: requests of different identities share the
  /// four-lane ladder and one field inversion. Each key is byte-identical
  /// to derive_pair_key's.
  [[nodiscard]] static std::vector<util::Bytes> derive_pair_keys(
      std::span<const PairKeyRequest> requests);

  /// The one-identity case: derive_pair_key for each of `peer_dh_publics`.
  [[nodiscard]] std::vector<util::Bytes> derive_pair_keys(
      std::span<const X25519Key> peer_dh_publics) const;

  /// Stable short identifier (hex of the first 8 bytes of the signing key
  /// hash); used in logs.
  [[nodiscard]] std::string short_id() const;

  /// Secret-key export/import for real deployments (key files on disk).
  /// Layout: 32-byte Ed25519 seed || 32-byte X25519 secret. Guard the
  /// bytes accordingly.
  [[nodiscard]] util::Bytes serialize_secret() const;
  /// Reconstructs the identity (and re-derives the public keys); returns
  /// nullopt on malformed input.
  static std::optional<Identity> deserialize_secret(util::ByteSpan secret);

 private:
  Ed25519Seed sign_seed_{};
  Ed25519PublicKey sign_pub_{};
  X25519Key dh_secret_{};
  X25519Key dh_pub_{};
};

}  // namespace drum::crypto
