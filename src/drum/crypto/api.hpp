// The one public entry point for drum's cryptographic primitives.
//
// Shapes, uniformly:
//   * one-shot  — crypto::sha256(msg), crypto::sha512(msg),
//                 crypto::chacha20_xor(...), crypto::ed25519_verify(...)
//   * incremental — the Sha256 / Sha512 classes
//                 (construct = init, update, final)
//   * batch     — crypto::ed25519_verify_batch(jobs), the one batched
//                 primitive: it shares work across signatures, where a
//                 batched hash would only interleave independent streams
//
// The SHA-256 forms route through the active crypto::Backend (backend.hpp):
// scalar reference, or SHA-NI picked at startup from CPUID and overridable
// with DRUM_CRYPTO_BACKEND=scalar|native. Results are bit-identical across
// backends. ChaCha20 (chacha20.hpp, included here) has one portable
// implementation and no backend slot.
#pragma once

#include <span>
#include <vector>

#include "drum/crypto/chacha20.hpp"
#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/sha256.hpp"
#include "drum/crypto/sha512.hpp"
#include "drum/util/bytes.hpp"

namespace drum::crypto {

/// One-shot SHA-256.
Sha256::Digest sha256(util::ByteSpan data);

/// One-shot SHA-512.
Sha512::Digest sha512(util::ByteSpan data);

/// One unit of batch signature verification. `message` is a non-owning view;
/// the caller keeps the bytes alive until ed25519_verify_batch returns.
struct VerifyJob {
  Ed25519PublicKey pub;
  util::ByteSpan message;
  Ed25519Signature sig;
};

/// Verifies many Ed25519 signatures, sharing the doubling ladder across the
/// whole batch (random linear combination + Straus multi-scalar
/// multiplication) and decoding each distinct public key once, as one term
/// for all of its signatures. Malformed encodings (non-canonical S, invalid
/// points) are rejected per-signature up front exactly as ed25519_verify
/// does, and if the combined check fails the batch falls back to
/// per-signature verification to attribute the exact bad indices — so any
/// single bad signature gets the same verdict as ed25519_verify, and a
/// forgery passes only with probability ~2^-128 per attempt (the 128-bit
/// coefficients come from a ChaCha20 keystream under a 256-bit key from
/// std::random_device). Sole caveat (standard for batch Ed25519, cf. RFC
/// 8032 §8.9 and ed25519_batch.cpp): multiple colluding signatures whose
/// defects lie entirely in the order-8 torsion subgroup may cancel inside
/// the combination and be accepted; this does not affect unforgeability.
std::vector<bool> ed25519_verify_batch(std::span<const VerifyJob> jobs);

}  // namespace drum::crypto
