// Ed25519 signatures (RFC 8032). Implemented over the fe25519 field in
// extended twisted-Edwards coordinates (a = -1, non-square d) with one
// dedicated doubling and one complete addition against a cached operand.
// Scalars mod the group order L live on fixed 64-bit limbs, and key
// generation, signing and verification all run one 4-bit-window
// multi-scalar multiplication (ed25519_internal.hpp). Signing is
// variable-time.
//
// Drum uses Ed25519 for: message source authentication ("unforgeable
// multicast"), CA-signed membership certificates, and signed join/leave
// events (paper §3, §10).
#pragma once

#include <array>
#include <optional>

#include "drum/util/bytes.hpp"

namespace drum::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedSize>;
using Ed25519PublicKey = std::array<std::uint8_t, kEd25519PublicKeySize>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureSize>;

/// Derives the public key from a 32-byte seed (RFC 8032 §5.1.5).
Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed);

/// Signs a message (RFC 8032 §5.1.6). Deterministic.
Ed25519Signature ed25519_sign(const Ed25519Seed& seed,
                              const Ed25519PublicKey& pub,
                              util::ByteSpan message);

/// One unit of batch signature verification (api.hpp:
/// ed25519_verify_batch). `message` is a non-owning view; the caller keeps
/// the bytes alive until the verification returns.
struct VerifyJob {
  Ed25519PublicKey pub;
  util::ByteSpan message;
  Ed25519Signature sig;
};

/// Verifies a signature (RFC 8032 §5.1.7). Rejects non-canonical S and
/// invalid point encodings.
bool ed25519_verify(const Ed25519PublicKey& pub, util::ByteSpan message,
                    const Ed25519Signature& sig);

}  // namespace drum::crypto
