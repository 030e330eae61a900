// Internal Ed25519 arithmetic shared by ed25519.cpp (key generation, sign,
// verify) and ed25519_batch.cpp (batch verification): the group in extended
// homogeneous coordinates over fe25519, with one addition (an extended
// point plus a point in cached form, or minus it) and one doubling; scalars
// mod the group order L; the one multi-scalar multiplication and the tables
// it reads; the per-thread cache of decoded signers; and the batch parse and
// the single check of verification. Not part of the public API — include
// drum/crypto/ed25519.hpp / api.hpp instead.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/fe25519.hpp"
#include "drum/util/bytes.hpp"

namespace drum::crypto::detail {

// Extended homogeneous coordinates (X:Y:Z:T), x = X/Z, y = Y/Z, xy = T/Z.
// Every coordinate is a reduced field element (fe25519.hpp).
struct Ge {
  Fe x, y, z, t;
};

// The second operand of ge_add: (Y+X, Y-X, 2Z, 2d·T) of an extended point,
// so an addition needs 8 multiplications and no curve constant.
struct GeCached {
  Fe ypx, ymx, z2, t2d;
};

// Curve constants: d = -121665/121666, 2d, sqrt(-1) (all mod p).
const Fe& const_d();
const Fe& const_d2();
const Fe& const_sqrtm1();

void ge_identity(Ge& h);
bool ge_is_identity(const Ge& h);
void ge_to_cached(GeCached& out, const Ge& p);

// out = p + q, the one addition (add-2008-hwcd-3, a = -1, k = 2d, 8M). The
// law is complete for Ed25519 because d is non-square: it is also right
// when p = q and for the identity and the torsion points.
void ge_add(Ge& out, const Ge& p, const GeCached& q);
// out = p - q: the same formula against -q, whose cached form swaps Y+X
// with Y-X and negates 2d·T.
void ge_sub(Ge& out, const Ge& p, const GeCached& q);
// out = 2p (dbl-2008-hwcd, a = -1, 4S + 4M). Complete on the curve: its
// denominators y^2 - x^2 = 1 + d·x^2·y^2 and 2 - (y^2 - x^2) never vanish
// for non-square d.
void ge_dbl(Ge& out, const Ge& p);
void ge_neg(Ge& out, const Ge& p);

void ge_tobytes(std::uint8_t s[32], const Ge& h);
// Decompression (RFC 8032 §5.1.3). Returns false on invalid encodings.
bool ge_frombytes(Ge& h, const std::uint8_t s[32]);

// Decompression in two halves around its one exponentiation, so that a
// batch can take several points' square roots together. ge_root_input
// applies the y < p rule and computes the root's input w; ge_from_root takes
// w^((p-5)/8) and applies the square and sign rules (x = 0 with the sign
// bit set is rejected). ge_frombytes is the two with fe_pow22523 between
// them, and holds no rule of its own.
struct GeRootInput {
  Fe y;
  Fe u;    // y^2 - 1
  Fe v;    // d·y^2 + 1
  Fe uv3;  // u·v^3
  Fe w;    // u·v^7, a tight fe_mul output: x = u·v^3·w^((p-5)/8)
  bool x_negative = false;  // the encoding's sign bit
};
bool ge_root_input(GeRootInput& in, const std::uint8_t s[32]);
bool ge_from_root(Ge& h, const GeRootInput& in, const Fe& root);

// Base point B: y = 4/5, x positive ("even").
const Ge& base_point();

// A 256-bit scalar as 32 little-endian bytes. The sc_ functions work mod
// the group order L = 2^252 + 27742317777372353535851937790883648493,
// except sc_add_mod_8l.
using Scalar = std::array<std::uint8_t, 32>;

// x mod L for a 512-bit little-endian x, such as a SHA-512 digest.
Scalar sc_reduce(const std::uint8_t x[64]);
// (a·b + c) mod L for any 256-bit a, b and c.
Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c);
// Whether s < L, i.e. s is a canonical scalar encoding.
bool sc_is_canonical(const std::uint8_t s[32]);

// (a + b) mod 8L for a, b < 8L. 8L is the order of the whole curve group,
// so n·P depends only on n mod 8L for every point P, torsion included; mod
// L it would not. Batch verification sums one signer's coefficients here.
Scalar sc_add_mod_8l(const Scalar& a, const Scalar& b);

// out[j] = (2j + 1)·p for every j < out.size(): the table of a signed-window
// scalar multiplication whose digits are odd and below 2·out.size() in
// magnitude. out.size() is a power of two, at most 64.
void ge_odd_multiples(std::span<GeCached> out, const Ge& p);

// Table sizes: B's static tables take width-8 digits, a signer's cached
// tables and the ones ge_msm builds itself width-5 digits.
inline constexpr std::size_t kBaseTableSize = 64;
inline constexpr std::size_t kPointTableSize = 8;

// The odd multiples of B and of 2^128·B, built once per process. Key
// generation, signing and every verification read them.
std::span<const GeCached> base_table();
std::span<const GeCached> base_table_hi();

struct MsmEntry {
  Scalar scalar;  // any 256-bit value
  Ge point;       // unused when `table` is set
  // The odd multiples of the point (ge_odd_multiples), precomputed; empty:
  // ge_msm builds kPointTableSize of them.
  std::span<const GeCached> table{};
};

// out = Σ scalar_i · point_i, the only scalar multiplication: key
// generation and signing use B's tables, verify and batch verify one
// combined equation. Straus interleaving over signed-window (wNAF) digits:
// one shared chain of doublings, as long as the longest scalar, and one
// table addition or subtraction per non-zero digit. Variable time: the
// additions and the table indices follow the scalars.
void ge_msm(Ge& out, std::span<const MsmEntry> entries);

// Appends the entries of s·P to `out`, given the odd multiples of P (`lo`)
// and of 2^128·P (`hi`): with `split`, the two 128-bit halves of s against
// `lo` and `hi`; otherwise s against `lo` alone, and `hi` is not read.
// Split terms keep the chain at 128 doublings, but only if every term of
// the sum is split.
void push_scalar_terms(std::vector<MsmEntry>& out, const Scalar& s,
                       std::span<const GeCached> lo,
                       std::span<const GeCached> hi, bool split);

// -P for the point P that s encodes (RFC 8032 §5.1.3); empty when s is not
// a valid encoding. Verification decodes each public key A through here.
std::optional<Ge> ge_decode_neg(const std::uint8_t s[32]);

// A public key prepared for verification: -A and its odd multiples, and,
// once a verification has split a scalar against the key, those of
// 2^128·(-A) (signer_add_hi). `lo` never changes.
struct SignerTables {
  Ed25519PublicKey pub;
  Ge neg_a;
  std::array<GeCached, kPointTableSize> lo;
  std::array<GeCached, kPointTableSize> hi;
  bool has_hi = false;
};

// One lookup in this thread's signer cache, which holds at most
// kSignerCacheSlots keys. A miss decodes A and builds the -A table;
// `tables` is null when `pub` is not a valid encoding, and invalid keys
// are not cached. `warm`: the key was cached before this lookup. Holding
// the pointer keeps the tables alive after the slot is reused.
struct SignerLookup {
  std::shared_ptr<SignerTables> tables;
  bool warm = false;
};
inline constexpr std::size_t kSignerCacheSlots = 64;
SignerLookup signer_lookup(const Ed25519PublicKey& pub);
// Builds the odd multiples of 2^128·(-A) unless `t` has them: 128
// doublings and a table. The chain-length rule calls it only for a sum
// that splits, so a table is never built without being read.
void signer_add_hi(SignerTables& t);
// Empties this thread's signer cache, so a test can compare the verdicts
// of cold and warm keys.
void signer_cache_clear();

// A signature that passed the deterministic checks of RFC 8032 §5.1.7
// other than the decoding of A, which the caller does once per key through
// the signer cache: S < L, and R decodes.
struct ParsedSignature {
  Ge neg_r;   // -R
  Scalar s;   // S
  Scalar k;   // SHA512(R || A || M) mod L
};

// The one parse of both verify paths, over a batch: for each job, its
// ParsedSignature, or empty when S is non-canonical or R is not a valid
// encoding. S's check and R's work before and after the square root run one
// job at a time; the roots and the challenge hashes of the jobs whose R
// decodes run four at a time on the active backend's fe_pow22523_x4 and
// sha512_x4, a last group of two or three padded. A lone job, and every job
// on a backend without the slot, runs fe_pow22523 or Sha512. Every result
// equals the one-job parse's.
std::vector<std::optional<ParsedSignature>> parse_signatures(
    std::span<const VerifyJob> jobs);

// Whether S·B + k·(-A) + (-R) = O for one parsed signature under the key
// whose tables `signer` holds: the check of ed25519_verify, and of each
// signature of a batch whose combined check failed. With `split`, S and k
// are split against the 2^128 tables (built here if missing) and the chain
// is 128 doublings; without, ~253.
bool verify_parsed(SignerTables& signer, bool split, const ParsedSignature& p);

}  // namespace drum::crypto::detail
