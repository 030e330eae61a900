// Internal Ed25519 arithmetic shared by ed25519.cpp (key generation, sign,
// verify) and ed25519_batch.cpp (batch verification): the group in extended
// homogeneous coordinates over fe25519 with the complete twisted-Edwards
// addition law, scalars mod the group order L, the one multi-scalar
// multiplication, and the parse step of verification. Not part of the
// public API — include drum/crypto/ed25519.hpp / api.hpp instead.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/fe25519.hpp"
#include "drum/util/bytes.hpp"

namespace drum::crypto::detail {

// Extended homogeneous coordinates (X:Y:Z:T), x = X/Z, y = Y/Z, xy = T/Z.
struct Ge {
  Fe x, y, z, t;
};

// Curve constants: d = -121665/121666, 2d, sqrt(-1) (all mod p).
const Fe& const_d();
const Fe& const_d2();
const Fe& const_sqrtm1();

void ge_identity(Ge& h);
bool ge_is_identity(const Ge& h);

// Unified twisted-Edwards addition (a = -1): complete for Ed25519 because d
// is non-square, so it also handles doubling and identity correctly.
void ge_add(Ge& out, const Ge& p, const Ge& q);
void ge_neg(Ge& out, const Ge& p);

void ge_tobytes(std::uint8_t s[32], const Ge& h);
// Decompression (RFC 8032 §5.1.3). Returns false on invalid encodings.
bool ge_frombytes(Ge& h, const std::uint8_t s[32]);

// Base point B: y = 4/5, x positive ("even").
const Ge& base_point();

// A 256-bit scalar as 32 little-endian bytes. The sc_ functions work mod
// the group order L = 2^252 + 27742317777372353535851937790883648493.
using Scalar = std::array<std::uint8_t, 32>;

// x mod L for a 512-bit little-endian x, such as a SHA-512 digest.
Scalar sc_reduce(const std::uint8_t x[64]);
// (a·b + c) mod L for any 256-bit a, b and c.
Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c);
// Whether s < L, i.e. s is a canonical scalar encoding.
bool sc_is_canonical(const std::uint8_t s[32]);

struct MsmEntry {
  Scalar scalar;  // any 256-bit value
  Ge point;
};

// out = Σ scalar_i · point_i, the only scalar multiplication: key
// generation and signing use one entry over B, verify and batch verify one
// combined equation. Variable time.
void ge_msm(Ge& out, std::span<const MsmEntry> entries);

// A signature that passed the deterministic checks of RFC 8032 §5.1.7:
// S < L, and A and R decode.
struct ParsedSignature {
  Ge neg_a, neg_r;  // -A and -R
  Scalar s;         // S
  Scalar k;         // SHA512(R || A || M) mod L
};

// The parse step shared by ed25519_verify and ed25519_verify_batch; empty
// when S is non-canonical or A or R is not a valid encoding.
std::optional<ParsedSignature> parse_signature(const Ed25519PublicKey& pub,
                                               util::ByteSpan message,
                                               const Ed25519Signature& sig);

}  // namespace drum::crypto::detail
