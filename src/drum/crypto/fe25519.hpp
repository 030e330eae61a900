// Arithmetic in GF(2^255 - 19), the base field of Curve25519/Ed25519.
// Representation: 5 limbs of 51 bits (radix 2^51), unsigned, loosely reduced
// between operations; tobytes() performs the full canonical reduction.
// Follows the well-known "donna-64bit" layout. Tested directly in
// tests/crypto_test.cpp (Fe.*) and through the RFC 7748 / RFC 8032 vectors.
//
// Limb bounds. Every limb of an element is below some power of two:
//   * fe_frombytes, fe_mul, fe_sq, fe_mul_small, fe_sub and fe_neg return
//     limbs below 2^51 + 2^13 ("tight"), so below 2^52 ("reduced");
//   * fe_add does not carry: on inputs below 2^53 it returns limbs below
//     2^54, so the sum of two reduced elements is below 2^53;
//   * fe_mul, fe_sq, fe_mul_small and fe_tobytes accept limbs below 2^54
//     (fe_mul's 128-bit column sums then stay below 2^115);
//   * fe_sub and fe_neg accept limbs below 2^53: fe_sub adds 8p, whose
//     limbs exceed 2^53, before subtracting, so an unreduced subtrahend
//     cannot wrap a limb;
//   * fe_sub_2p does not carry: it adds 2p, whose limbs are at least
//     2^52 - 38, so its subtrahend must be tight; with a reduced minuend
//     it returns limbs below 2^53. The X25519 ladder subtracts only tight
//     elements (fe_mul/fe_sq outputs and the fe_frombytes input), so it
//     uses fe_sub_2p; Ed25519 subtracts unreduced sums and keeps fe_sub.
// So the sum of two reduced elements may go into any function, and a sum
// with a larger input only into fe_mul, fe_sq, fe_mul_small or fe_tobytes.
#pragma once

#include <array>
#include <cstdint>

#include "drum/util/bytes.hpp"

namespace drum::crypto {

struct Fe {
  std::uint64_t v[5];
};

void fe_zero(Fe& h);
void fe_one(Fe& h);
void fe_copy(Fe& h, const Fe& f);

/// Load 32 little-endian bytes; the top bit is ignored (as per RFC 7748).
void fe_frombytes(Fe& h, const std::uint8_t* s);
/// Store the canonical (fully reduced) 32-byte little-endian encoding.
void fe_tobytes(std::uint8_t* s, const Fe& f);

void fe_add(Fe& h, const Fe& f, const Fe& g);
void fe_sub(Fe& h, const Fe& f, const Fe& g);
/// h = f - g + 2p with no carry pass: g must be tight, and h's limbs are
/// then below f's plus 2^52. See the limb bounds above.
void fe_sub_2p(Fe& h, const Fe& f, const Fe& g);
void fe_neg(Fe& h, const Fe& f);
void fe_mul(Fe& h, const Fe& f, const Fe& g);
/// h = f^2 in 15 limb products instead of fe_mul's 25.
void fe_sq(Fe& h, const Fe& f);
/// h = f * n for n < 2^17; the X25519 ladder multiplies by
/// a24 = 121665 (RFC 7748 §5).
void fe_mul_small(Fe& h, const Fe& f, std::uint64_t n);

/// Constant-time conditional swap: (f,g) <- b ? (g,f) : (f,g). b in {0,1}.
void fe_cswap(Fe& f, Fe& g, std::uint64_t b);
/// Constant-time conditional move: h <- b ? f : h. b in {0,1}.
void fe_cmov(Fe& h, const Fe& f, std::uint64_t b);

/// h = f^(p-2) = f^-1 (Fermat); 0 maps to 0. 254 squarings and 11
/// multiplications.
void fe_invert(Fe& h, const Fe& f);
/// h = f^((p-5)/8); used for square roots in Ed25519 point decompression.
void fe_pow22523(Fe& h, const Fe& f);

/// The X25519 Montgomery ladder (RFC 7748 §5) for a clamped scalar k and
/// the u-coordinate u: (x_out : z_out) = k * u. Each step does 5M (one of
/// them by u), 4S, one multiplication by a24 and one constant-time swap,
/// and subtracts with fe_sub_2p. It lives in the field's translation unit
/// so that it can inline every field operation (the build has no LTO),
/// while Ed25519 keeps calling them out of line.
void fe_x25519_ladder(const std::array<std::uint8_t, 32>& k,
                      const std::array<std::uint8_t, 32>& u, Fe& x_out,
                      Fe& z_out);

bool fe_is_zero(const Fe& f);
/// Least significant bit of the canonical encoding ("sign" bit in EdDSA).
bool fe_is_negative(const Fe& f);

}  // namespace drum::crypto
