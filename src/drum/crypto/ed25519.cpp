#include "drum/crypto/ed25519.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <random>
#include <vector>

#include "drum/crypto/backend.hpp"
#include "drum/crypto/ed25519_internal.hpp"
#include "drum/crypto/sha512.hpp"
#include "drum/crypto/x25519.hpp"

namespace drum::crypto {

namespace detail {

// d = -121665/121666 mod p.
const Fe& const_d() {
  static const Fe d = [] {
    Fe num, den, den_inv, out;
    fe_zero(num);
    num.v[0] = 121665;
    fe_neg(num, num);            // -121665
    fe_zero(den);
    den.v[0] = 121666;
    fe_invert(den_inv, den);
    fe_mul(out, num, den_inv);
    return out;
  }();
  return d;
}

// 2d, the k of the cached form.
const Fe& const_d2() {
  static const Fe d2 = [] {
    Fe out;
    fe_add(out, const_d(), const_d());
    return out;
  }();
  return d2;
}

// sqrt(-1) = 2^((p-1)/4).
const Fe& const_sqrtm1() {
  static const Fe sqrtm1 = [] {
    // sqrt(-1) = 2^((p-1)/4); computed via x = 2^((p-1)/4) using pow22523
    // identities is awkward, so use the known canonical encoding.
    static const std::uint8_t enc[32] = {
        0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f,
        0xad, 0x06, 0x18, 0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00,
        0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b};
    Fe out;
    fe_frombytes(out, enc);
    return out;
  }();
  return sqrtm1;
}

void ge_identity(Ge& h) {
  fe_zero(h.x);
  fe_one(h.y);
  fe_one(h.z);
  fe_zero(h.t);
}

bool ge_is_identity(const Ge& h) {
  // Identity is (0 : Z : Z : 0), i.e. x = 0 and y = z.
  Fe diff;
  fe_sub(diff, h.y, h.z);
  return fe_is_zero(h.x) && fe_is_zero(diff);
}

void ge_to_cached(GeCached& out, const Ge& p) {
  fe_add(out.ypx, p.y, p.x);
  fe_sub(out.ymx, p.y, p.x);
  fe_add(out.z2, p.z, p.z);
  fe_mul(out.t2d, p.t, const_d2());
}

namespace {

// p + q, or p - q when `subtract`: -q swaps Y+X with Y-X and negates 2d·T,
// so C = 2d·T1·T2 changes sign and F and G trade places.
void ge_add_signed(Ge& out, const Ge& p, const GeCached& q, bool subtract) {
  Fe a, b, c, d, e, f, g, h;
  fe_sub(e, p.y, p.x);
  fe_mul(a, e, subtract ? q.ypx : q.ymx);  // A = (Y1-X1)(Y2-X2)
  fe_add(e, p.y, p.x);
  fe_mul(b, e, subtract ? q.ymx : q.ypx);  // B = (Y1+X1)(Y2+X2)
  fe_mul(c, p.t, q.t2d);       // C = 2d T1 T2
  fe_mul(d, p.z, q.z2);        // D = 2 Z1 Z2
  fe_sub(e, b, a);
  fe_add(h, b, a);
  if (subtract) {
    fe_add(f, d, c);
    fe_sub(g, d, c);
  } else {
    fe_sub(f, d, c);
    fe_add(g, d, c);
  }
  fe_mul(out.x, e, f);
  fe_mul(out.y, g, h);
  fe_mul(out.t, e, h);
  fe_mul(out.z, f, g);
}

}  // namespace

void ge_add(Ge& out, const Ge& p, const GeCached& q) {
  ge_add_signed(out, p, q, false);
}

void ge_sub(Ge& out, const Ge& p, const GeCached& q) {
  ge_add_signed(out, p, q, true);
}

void ge_dbl(Ge& out, const Ge& p) {
  // With a = -1: E = 2XY, G = Y^2 - X^2, F = G - 2Z^2, H = -(X^2 + Y^2).
  // The code keeps -F and -H, which negates all four outputs: the same
  // projective point.
  Fe a, b, c, e, f, g, h;
  fe_sq(a, p.x);               // X^2
  fe_sq(b, p.y);               // Y^2
  fe_sq(c, p.z);
  fe_add(c, c, c);             // 2 Z^2
  fe_add(h, a, b);             // -H
  fe_add(e, p.x, p.y);
  fe_sq(e, e);
  fe_sub(e, e, h);             // E = (X+Y)^2 - X^2 - Y^2
  fe_sub(g, b, a);             // G
  fe_sub(f, c, g);             // -F
  fe_mul(out.x, e, f);
  fe_mul(out.y, g, h);
  fe_mul(out.t, e, h);
  fe_mul(out.z, f, g);
}

void ge_neg(Ge& out, const Ge& p) {
  fe_neg(out.x, p.x);
  fe_copy(out.y, p.y);
  fe_copy(out.z, p.z);
  fe_neg(out.t, p.t);
}

void ge_tobytes(std::uint8_t s[32], const Ge& h) {
  Fe zinv, x, y;
  fe_invert(zinv, h.z);
  fe_mul(x, h.x, zinv);
  fe_mul(y, h.y, zinv);
  fe_tobytes(s, y);
  s[31] ^= static_cast<std::uint8_t>(fe_is_negative(x) ? 0x80 : 0x00);
}

bool ge_root_input(GeRootInput& in, const std::uint8_t s[32]) {
  fe_frombytes(in.y, s);
  // y must be below p. fe_frombytes accepts y >= p, as X25519 requires
  // (RFC 7748 §5), so re-encode y and compare.
  std::uint8_t canonical[32];
  fe_tobytes(canonical, in.y);
  canonical[31] |= s[31] & 0x80;
  if (std::memcmp(canonical, s, 32) != 0) return false;
  in.x_negative = (s[31] & 0x80) != 0;
  // u = y^2 - 1, v = d y^2 + 1.
  Fe y2, one, v3;
  fe_sq(y2, in.y);
  fe_one(one);
  fe_sub(in.u, y2, one);
  fe_mul(in.v, y2, const_d());
  fe_add(in.v, in.v, one);
  fe_sq(v3, in.v);
  fe_mul(v3, v3, in.v);         // v^3
  fe_mul(in.uv3, v3, in.u);     // u v^3
  fe_sq(in.w, v3);
  fe_mul(in.w, in.w, in.v);     // v^7
  fe_mul(in.w, in.w, in.u);     // u v^7
  return true;
}

bool ge_from_root(Ge& h, const GeRootInput& in, const Fe& root) {
  // x = u v^3 (u v^7)^((p-5)/8); v x^2 must be u or -u.
  Fe x, x2, check, neg_u, diff1, diff2;
  fe_mul(x, in.uv3, root);
  fe_sq(x2, x);
  fe_mul(check, x2, in.v);
  fe_neg(neg_u, in.u);
  fe_sub(diff1, check, in.u);
  fe_sub(diff2, check, neg_u);
  if (!fe_is_zero(diff1)) {
    if (!fe_is_zero(diff2)) return false;  // not a square: invalid point
    fe_mul(x, x, const_sqrtm1());
  }
  if (fe_is_negative(x) != in.x_negative) {
    if (fe_is_zero(x) && in.x_negative) return false;  // -0 is non-canonical
    fe_neg(x, x);
  }
  fe_copy(h.x, x);
  fe_copy(h.y, in.y);
  fe_one(h.z);
  fe_mul(h.t, x, in.y);
  return true;
}

bool ge_frombytes(Ge& h, const std::uint8_t s[32]) {
  GeRootInput in;
  if (!ge_root_input(in, s)) return false;
  Fe root;
  fe_pow22523(root, in.w);
  return ge_from_root(h, in, root);
}

const Ge& base_point() {
  static const Ge b = [] {
    // y = 4/5 mod p; x recovered by decompression with the "even" sign bit.
    Fe four, five, five_inv, y;
    fe_zero(four);
    four.v[0] = 4;
    fe_zero(five);
    five.v[0] = 5;
    fe_invert(five_inv, five);
    fe_mul(y, four, five_inv);
    std::uint8_t enc[32];
    fe_tobytes(enc, y);  // sign bit 0 = even x
    Ge out;
    bool ok = ge_frombytes(out, enc);
    (void)ok;
    return out;
  }();
  return b;
}

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L and μ = ⌊2^512 / L⌋ in little-endian 64-bit limbs.
constexpr u64 kL[5] = {0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0,
                       0x1000000000000000, 0};
constexpr u64 kMu[5] = {0xed9ce5a30a2c131b, 0x2106215d086329a7,
                        0xffffffffffffffeb, 0xffffffffffffffff, 0xf};
// 8L, kL shifted left by three bits.
constexpr u64 k8L[5] = {kL[0] << 3, kL[1] << 3 | kL[0] >> 61,
                        kL[2] << 3 | kL[1] >> 61, kL[3] << 3 | kL[2] >> 61,
                        kL[4] << 3 | kL[3] >> 61};

u64 load64(const std::uint8_t* p) {
  u64 v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

// The low four limbs as 32 little-endian bytes.
Scalar to_scalar(const u64 limbs[4]) {
  Scalar out;
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(limbs[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

// out[0, na + nb) = a · b.
void mul_limbs(u64* out, const u64* a, int na, const u64* b, int nb) {
  std::fill_n(out, na + nb, 0);
  for (int i = 0; i < na; ++i) {
    u64 carry = 0;
    for (int j = 0; j < nb; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(t);
      carry = static_cast<u64>(t >> 64);
    }
    out[i + nb] = carry;
  }
}

// out = (a - b) mod 2^320 over five limbs; returns the borrow out.
u64 sub_limbs(u64 out[5], const u64 a[5], const u64 b[5]) {
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return borrow;
}

// x mod L for any x < 2^512: Barrett reduction (HAC 14.42, b = 2^64,
// k = 4). q = ⌊⌊x / b^3⌋ · μ / b^5⌋ undershoots x / L by less than
// frac(2^512 / L) + 2^-60 < 0.23, so q is ⌊x / L⌋ or one less, and
// r = x − q·L, computed mod b^5, needs at most one subtraction of L (HAC's
// general bound is two).
Scalar barrett_reduce(const u64 x[8]) {
  u64 q[10], ql[9], r[5], t[5];
  mul_limbs(q, x + 3, 5, kMu, 5);
  mul_limbs(ql, q + 5, 5, kL, 4);
  sub_limbs(r, x, ql);
  if (sub_limbs(t, r, kL) == 0) std::copy_n(t, 5, r);
  return to_scalar(r);
}

}  // namespace

Scalar sc_reduce(const std::uint8_t x[64]) {
  u64 limbs[8];
  for (int i = 0; i < 8; ++i) limbs[i] = load64(x + 8 * i);
  return barrett_reduce(limbs);
}

Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  u64 la[4], lb[4], x[8];
  for (int i = 0; i < 4; ++i) {
    la[i] = load64(a.data() + 8 * i);
    lb[i] = load64(b.data() + 8 * i);
  }
  mul_limbs(x, la, 4, lb, 4);
  // a·b + c < 2^512 for any 256-bit inputs, so this carry ends in x[7].
  u64 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u64 ci = i < 4 ? load64(c.data() + 8 * i) : 0;
    const u128 s = static_cast<u128>(x[i]) + ci + carry;
    x[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  return barrett_reduce(x);
}

bool sc_is_canonical(const std::uint8_t s[32]) {
  for (int i = 3; i >= 0; --i) {
    const u64 v = load64(s + 8 * i);
    if (v != kL[i]) return v < kL[i];
  }
  return false;  // s == L
}

Scalar sc_add_mod_8l(const Scalar& a, const Scalar& b) {
  // a + b < 16L < 2^257: five limbs, then at most one subtraction of 8L.
  u64 sum[5], t[5];
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 s = static_cast<u128>(load64(a.data() + 8 * i)) +
                   load64(b.data() + 8 * i) + carry;
    sum[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  sum[4] = carry;
  if (sub_limbs(t, sum, k8L) == 0) std::copy_n(t, 5, sum);
  return to_scalar(sum);
}

void ge_odd_multiples(std::span<GeCached> out, const Ge& p) {
  ge_to_cached(out[0], p);
  if (out.size() == 1) return;
  Ge twice, multiple = p;
  GeCached twice_cached;
  ge_dbl(twice, p);
  ge_to_cached(twice_cached, twice);
  for (std::size_t j = 1; j < out.size(); ++j) {
    ge_add(multiple, multiple, twice_cached);
    ge_to_cached(out[j], multiple);
  }
}

namespace {

struct BaseTables {
  std::array<GeCached, kBaseTableSize> lo, hi;
};

const BaseTables& base_tables() {
  static const BaseTables tables = [] {
    BaseTables t;
    ge_odd_multiples(t.lo, base_point());
    Ge high = base_point();
    for (int i = 0; i < 128; ++i) ge_dbl(high, high);
    ge_odd_multiples(t.hi, high);
    return t;
  }();
  return tables;
}

// Positions 0..256: a 256-bit scalar's signed digits may carry into bit 256.
using Digits = std::array<std::int8_t, 257>;

// The width-w signed-window (wNAF) digits of s, w in [2, 8]: each digit is
// zero or odd with magnitude below 2^(w-1), any w consecutive digits hold
// at most one non-zero, and Σ digits[i]·2^i = s. `digits` must be zeroed.
// Returns the position of the highest non-zero digit, -1 for s = 0.
int wnaf_digits(Digits& digits, const Scalar& s, int w) {
  u64 limbs[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) limbs[i] = load64(s.data() + 8 * i);
  // The 64 bits of s from `pos` (< 257) up, zero past bit 255.
  auto bits_at = [&](int pos) {
    const int limb = pos / 64;
    const int shift = pos % 64;
    u64 v = limbs[limb] >> shift;
    if (shift != 0 && limb < 4) v |= limbs[limb + 1] << (64 - shift);
    return v;
  };
  const u64 window_mask = (u64{1} << w) - 1;
  int top = -1;
  u64 carry = 0;
  for (int pos = 0; pos < 257;) {
    // A digit starts at the next bit that differs from the carry; with the
    // carry added, its window is odd.
    const u64 differ = bits_at(pos) ^ (carry ? ~u64{0} : 0);
    if (differ == 0) {
      pos += 64;
      continue;
    }
    pos += std::countr_zero(differ);
    if (pos >= 257) break;
    const u64 window = (bits_at(pos) & window_mask) + carry;
    carry = window >> (w - 1);  // take the negative digit from 2^(w-1) up
    digits[pos] = static_cast<std::int8_t>(static_cast<int>(window) -
                                           static_cast<int>(carry << w));
    top = pos;
    pos += w;
  }
  return top;
}

}  // namespace

std::span<const GeCached> base_table() { return base_tables().lo; }
std::span<const GeCached> base_table_hi() { return base_tables().hi; }

// Straus interleaving over signed windows: entries without a table get
// kPointTableSize odd multiples; the chain doubles once per digit position
// below the highest non-zero digit of any entry, so a sum of 128-bit
// scalars costs 128 doublings and a sum with a full-size scalar ~253.
void ge_msm(Ge& out, std::span<const MsmEntry> entries) {
  const std::size_t n = entries.size();
  std::size_t to_build = 0;
  for (const MsmEntry& e : entries) to_build += e.table.empty() ? 1 : 0;
  std::vector<std::array<GeCached, kPointTableSize>> built(to_build);
  std::vector<std::span<const GeCached>> tables(n);
  std::vector<Digits> digits(n, Digits{});
  int top = -1;
  for (std::size_t i = 0, b = 0; i < n; ++i) {
    tables[i] = entries[i].table;
    if (tables[i].empty()) {
      ge_odd_multiples(built[b], entries[i].point);
      tables[i] = built[b++];
    }
    const int w = 2 + std::countr_zero(tables[i].size());
    top = std::max(top, wnaf_digits(digits[i], entries[i].scalar, w));
  }
  ge_identity(out);
  for (int pos = top; pos >= 0; --pos) {
    if (pos != top) ge_dbl(out, out);
    for (std::size_t i = 0; i < n; ++i) {
      const int d = digits[i][pos];
      if (d > 0) {
        ge_add(out, out, tables[i][d / 2]);
      } else if (d < 0) {
        ge_sub(out, out, tables[i][-d / 2]);
      }
    }
  }
}

void push_scalar_terms(std::vector<MsmEntry>& out, const Scalar& s,
                       std::span<const GeCached> lo,
                       std::span<const GeCached> hi, bool split) {
  if (!split) {
    out.push_back({s, {}, lo});
    return;
  }
  Scalar low{}, high{};  // s = low + 2^128·high
  std::copy_n(s.begin(), 16, low.begin());
  std::copy_n(s.begin() + 16, 16, high.begin());
  out.push_back({low, {}, lo});
  out.push_back({high, {}, hi});
}

std::optional<Ge> ge_decode_neg(const std::uint8_t s[32]) {
  Ge p;
  if (!ge_frombytes(p, s)) return std::nullopt;
  ge_neg(p, p);
  return p;
}

namespace {

// Direct-mapped: a key's slot comes from its first eight bytes mixed with a
// per-thread random salt, so no key can be aimed at another key's slot.
// Two keys that share a slot evict each other, and each then costs what a
// never-seen key costs.
struct SignerCache {
  std::array<std::shared_ptr<SignerTables>, kSignerCacheSlots> slots;
  u64 salt = 0;
};

SignerCache& signer_cache() {
  thread_local SignerCache cache = [] {
    SignerCache c;
    std::random_device rd;
    c.salt = static_cast<u64>(rd()) << 32 | rd();
    return c;
  }();
  return cache;
}

std::size_t signer_slot(const Ed25519PublicKey& pub, u64 salt) {
  static_assert(std::has_single_bit(kSignerCacheSlots));
  constexpr int kBits = std::countr_zero(kSignerCacheSlots);
  return static_cast<std::size_t>(((load64(pub.data()) ^ salt) *
                                   0x9e3779b97f4a7c15ull) >> (64 - kBits));
}

}  // namespace

SignerLookup signer_lookup(const Ed25519PublicKey& pub) {
  SignerCache& cache = signer_cache();
  std::shared_ptr<SignerTables>& slot = cache.slots[signer_slot(pub, cache.salt)];
  if (slot && slot->pub == pub) return {slot, true};
  const auto neg_a = ge_decode_neg(pub.data());
  if (!neg_a) return {};
  auto tables = std::make_shared<SignerTables>();
  tables->pub = pub;
  tables->neg_a = *neg_a;
  ge_odd_multiples(tables->lo, *neg_a);
  slot = tables;
  return {tables, false};
}

void signer_add_hi(SignerTables& t) {
  if (t.has_hi) return;
  Ge high = t.neg_a;
  for (int i = 0; i < 128; ++i) ge_dbl(high, high);
  ge_odd_multiples(t.hi, high);
  t.has_hi = true;
}

void signer_cache_clear() {
  for (auto& slot : signer_cache().slots) slot.reset();
}

namespace {

// SHA512(R || A || M), which k reduces mod L (RFC 8032 §5.1.6 step 4,
// §5.1.7 step 2).
Sha512::Digest challenge_digest(const std::uint8_t r[32],
                                const Ed25519PublicKey& pub,
                                util::ByteSpan message) {
  Sha512 h;
  h.update(util::ByteSpan(r, 32));
  h.update(util::ByteSpan(pub.data(), pub.size()));
  h.update(message);
  return h.final();
}

}  // namespace

std::vector<std::optional<ParsedSignature>> parse_signatures(
    std::span<const VerifyJob> jobs) {
  const Backend& backend = active_backend();
  std::vector<std::optional<ParsedSignature>> out(jobs.size());

  // S < L and R's work before its square root, one job at a time.
  std::vector<std::size_t> live;
  std::vector<GeRootInput> inputs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    GeRootInput in;
    if (!sc_is_canonical(jobs[i].sig.data() + 32) ||
        !ge_root_input(in, jobs[i].sig.data())) {
      continue;
    }
    live.push_back(i);
    inputs.push_back(in);
  }

  // R's square roots; a padding lane repeats its group's first input.
  std::vector<Fe> roots(live.size());
  in_groups_of_four(
      live.size(), backend.fe_pow22523_x4 != nullptr,
      [&](std::size_t i, std::size_t lanes) {
        Fe w[4], r[4];
        for (std::size_t l = 0; l < 4; ++l) {
          w[l] = inputs[l < lanes ? i + l : i].w;
        }
        backend.fe_pow22523_x4(w, r);
        std::copy_n(r, lanes, roots.begin() + static_cast<std::ptrdiff_t>(i));
      },
      [&](std::size_t i) { fe_pow22523(roots[i], inputs[i].w); });

  std::vector<std::size_t> decoded;
  std::vector<Ge> neg_r;
  for (std::size_t j = 0; j < live.size(); ++j) {
    Ge r;
    if (!ge_from_root(r, inputs[j], roots[j])) continue;
    decoded.push_back(live[j]);
    ge_neg(r, r);
    neg_r.push_back(r);
  }

  // The challenge hashes of the jobs whose R decoded. The lane kernel reads
  // each R || A || M as one message, so a group copies them out, each to an
  // allocation of its exact size; a padding lane hashes the empty message.
  std::vector<Sha512::Digest> digests(decoded.size());
  in_groups_of_four(
      decoded.size(), backend.sha512_x4 != nullptr,
      [&](std::size_t i, std::size_t lanes) {
        util::Bytes joined[4];
        const std::uint8_t* msg[4] = {};
        std::size_t len[4] = {};
        std::uint8_t digest[4][64];
        for (std::size_t l = 0; l < lanes; ++l) {
          const VerifyJob& job = jobs[decoded[i + l]];
          joined[l].resize(32 + job.pub.size() + job.message.size());
          auto at = std::copy_n(job.sig.begin(), 32, joined[l].begin());
          at = std::copy(job.pub.begin(), job.pub.end(), at);
          std::copy(job.message.begin(), job.message.end(), at);
          msg[l] = joined[l].data();
          len[l] = joined[l].size();
        }
        backend.sha512_x4(msg, len, digest);
        for (std::size_t l = 0; l < lanes; ++l) {
          std::copy_n(digest[l], 64, digests[i + l].begin());
        }
      },
      [&](std::size_t i) {
        const VerifyJob& job = jobs[decoded[i]];
        digests[i] = challenge_digest(job.sig.data(), job.pub, job.message);
      });

  for (std::size_t j = 0; j < decoded.size(); ++j) {
    ParsedSignature& p = out[decoded[j]].emplace();
    p.neg_r = neg_r[j];
    std::copy_n(jobs[decoded[j]].sig.begin() + 32, 32, p.s.begin());
    p.k = sc_reduce(digests[j].data());
  }
  return out;
}

bool verify_parsed(SignerTables& signer, bool split, const ParsedSignature& p) {
  if (split) signer_add_hi(signer);
  std::vector<MsmEntry> terms;
  push_scalar_terms(terms, p.s, base_table(), base_table_hi(), split);
  push_scalar_terms(terms, p.k, signer.lo, signer.hi, split);
  Ge sum;
  ge_msm(sum, terms);
  GeCached neg_r;
  ge_to_cached(neg_r, p.neg_r);
  ge_add(sum, sum, neg_r);
  return ge_is_identity(sum);
}

}  // namespace detail

namespace {

using detail::Ge;
using detail::Scalar;

// SHA-512 of the seed (RFC 8032 §5.1.5). Local one-shot: this file sits
// below api.hpp in the layering, so it cannot route through the backend
// dispatcher.
Sha512::Digest expand_seed(const Ed25519Seed& seed) {
  Sha512 h;
  h.update(util::ByteSpan(seed.data(), seed.size()));
  return h.final();
}

// The secret scalar s: the low half of the expanded seed, pruned exactly
// as RFC 7748 clamps an X25519 scalar.
Scalar secret_scalar(const Sha512::Digest& h) {
  X25519Key s;
  std::copy_n(h.begin(), 32, s.begin());
  return x25519_clamp(s);
}

// Encodes s·B: the halves of s against B's two static tables.
void encode_base_multiple(std::uint8_t out[32], const Scalar& s) {
  std::vector<detail::MsmEntry> terms;
  detail::push_scalar_terms(terms, s, detail::base_table(),
                            detail::base_table_hi(), true);
  Ge p;
  detail::ge_msm(p, terms);
  detail::ge_tobytes(out, p);
}

}  // namespace

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed) {
  Ed25519PublicKey pub;
  encode_base_multiple(pub.data(), secret_scalar(expand_seed(seed)));
  return pub;
}

Ed25519Signature ed25519_sign(const Ed25519Seed& seed,
                              const Ed25519PublicKey& pub,
                              util::ByteSpan message) {
  const auto h = expand_seed(seed);

  // r = SHA512(prefix || M) mod L, R = r·B
  Sha512 hr;
  hr.update(util::ByteSpan(h.data() + 32, 32));
  hr.update(message);
  const Scalar r = detail::sc_reduce(hr.final().data());
  Ed25519Signature sig{};
  encode_base_multiple(sig.data(), r);

  // S = (r + k·s) mod L
  const Scalar k = detail::sc_reduce(
      detail::challenge_digest(sig.data(), pub, message).data());
  const Scalar s = detail::sc_muladd(k, secret_scalar(h), r);
  std::copy(s.begin(), s.end(), sig.begin() + 32);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& pub, util::ByteSpan message,
                    const Ed25519Signature& sig) {
  const auto signer = detail::signer_lookup(pub);
  if (!signer.tables) return false;
  const VerifyJob job{pub, message, sig};
  const auto parsed = detail::parse_signatures(std::span(&job, 1));
  // A key cached before this call gets its 2^128 table, and the halves run
  // 128 doublings.
  return parsed[0] &&
         detail::verify_parsed(*signer.tables, signer.warm, *parsed[0]);
}

}  // namespace drum::crypto
