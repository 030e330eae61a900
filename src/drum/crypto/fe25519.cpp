#include "drum/crypto/fe25519.hpp"

namespace drum::crypto {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;
constexpr u64 kMask = (1ULL << 51) - 1;
}  // namespace

void fe_zero(Fe& h) {
  for (auto& l : h.v) l = 0;
}

void fe_one(Fe& h) {
  fe_zero(h);
  h.v[0] = 1;
}

void fe_copy(Fe& h, const Fe& f) { h = f; }

void fe_frombytes(Fe& h, const std::uint8_t* s) {
  auto load64 = [](const std::uint8_t* p) {
    u64 v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
    return v;
  };
  h.v[0] = load64(s) & kMask;
  h.v[1] = (load64(s + 6) >> 3) & kMask;
  h.v[2] = (load64(s + 12) >> 6) & kMask;
  h.v[3] = (load64(s + 19) >> 1) & kMask;
  h.v[4] = (load64(s + 24) >> 12) & kMask;
}

namespace {
// Weak reduction: brings all limbs below 2^52 or so.
inline void carry_pass(Fe& h) {
  for (int i = 0; i < 4; ++i) {
    h.v[i + 1] += h.v[i] >> 51;
    h.v[i] &= kMask;
  }
  h.v[0] += 19 * (h.v[4] >> 51);
  h.v[4] &= kMask;
}
}  // namespace

void fe_tobytes(std::uint8_t* s, const Fe& f) {
  Fe t = f;
  carry_pass(t);
  carry_pass(t);
  carry_pass(t);
  // Now t < 2^255 + small; subtract p if t >= p (two conditional passes).
  for (int pass = 0; pass < 2; ++pass) {
    // Compute t - p = t - (2^255 - 19); if non-negative, keep it.
    u64 q = (t.v[0] + 19) >> 51;
    q = (t.v[1] + q) >> 51;
    q = (t.v[2] + q) >> 51;
    q = (t.v[3] + q) >> 51;
    q = (t.v[4] + q) >> 51;  // q = 1 iff t >= p
    t.v[0] += 19 * q;
    t.v[1] += t.v[0] >> 51; t.v[0] &= kMask;
    t.v[2] += t.v[1] >> 51; t.v[1] &= kMask;
    t.v[3] += t.v[2] >> 51; t.v[2] &= kMask;
    t.v[4] += t.v[3] >> 51; t.v[3] &= kMask;
    t.v[4] &= kMask;  // drop the 2^255 bit
  }
  u64 limbs[4];
  limbs[0] = t.v[0] | t.v[1] << 51;
  limbs[1] = t.v[1] >> 13 | t.v[2] << 38;
  limbs[2] = t.v[2] >> 26 | t.v[3] << 25;
  limbs[3] = t.v[3] >> 39 | t.v[4] << 12;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      s[8 * i + j] = static_cast<std::uint8_t>(limbs[i] >> (8 * j));
    }
  }
}

void fe_add(Fe& h, const Fe& f, const Fe& g) {
  for (int i = 0; i < 5; ++i) h.v[i] = f.v[i] + g.v[i];
}

void fe_sub(Fe& h, const Fe& f, const Fe& g) {
  // Add 8p (in loose form), whose limbs exceed any subtrahend limb below
  // 2^53, to keep every limb non-negative.
  h.v[0] = f.v[0] + 0x3FFFFFFFFFFF68ULL - g.v[0];
  h.v[1] = f.v[1] + 0x3FFFFFFFFFFFF8ULL - g.v[1];
  h.v[2] = f.v[2] + 0x3FFFFFFFFFFFF8ULL - g.v[2];
  h.v[3] = f.v[3] + 0x3FFFFFFFFFFFF8ULL - g.v[3];
  h.v[4] = f.v[4] + 0x3FFFFFFFFFFFF8ULL - g.v[4];
  carry_pass(h);
}

void fe_neg(Fe& h, const Fe& f) {
  Fe zero;
  fe_zero(zero);
  fe_sub(h, zero, f);
}

namespace {
// Carries the column sums of a product into reduced limbs. Each t_i is
// below 2^115 (limbs below 2^54), so t4's carry times 19 fits in 64 bits.
inline void carry_product(Fe& h, u128 t0, u128 t1, u128 t2, u128 t3,
                          u128 t4) {
  u64 r0, r1, r2, r3, r4, carry;
  r0 = (u64)t0 & kMask; carry = (u64)(t0 >> 51);
  t1 += carry;
  r1 = (u64)t1 & kMask; carry = (u64)(t1 >> 51);
  t2 += carry;
  r2 = (u64)t2 & kMask; carry = (u64)(t2 >> 51);
  t3 += carry;
  r3 = (u64)t3 & kMask; carry = (u64)(t3 >> 51);
  t4 += carry;
  r4 = (u64)t4 & kMask; carry = (u64)(t4 >> 51);
  r0 += carry * 19;
  r1 += r0 >> 51; r0 &= kMask;  // r1 < 2^51 + 2^13

  h.v[0] = r0; h.v[1] = r1; h.v[2] = r2; h.v[3] = r3; h.v[4] = r4;
}
}  // namespace

void fe_mul(Fe& h, const Fe& f, const Fe& g) {
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3], g4 = g.v[4];
  const u64 g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;

  u128 t0 = (u128)f0 * g0 + (u128)f1 * g4_19 + (u128)f2 * g3_19 +
            (u128)f3 * g2_19 + (u128)f4 * g1_19;
  u128 t1 = (u128)f0 * g1 + (u128)f1 * g0 + (u128)f2 * g4_19 +
            (u128)f3 * g3_19 + (u128)f4 * g2_19;
  u128 t2 = (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 +
            (u128)f3 * g4_19 + (u128)f4 * g3_19;
  u128 t3 = (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 +
            (u128)f4 * g4_19;
  u128 t4 = (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 +
            (u128)f4 * g0;

  carry_product(h, t0, t1, t2, t3, t4);
}

void fe_sq(Fe& h, const Fe& f) {
  // fe_mul(h, f, f) with each cross product f_i·f_j (i != j) taken once
  // and doubled.
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 f0_2 = 2 * f0, f1_2 = 2 * f1;
  const u64 f3_19 = 19 * f3, f4_19 = 19 * f4;

  u128 t0 = (u128)f0 * f0 + (u128)f1_2 * f4_19 + (u128)(2 * f2) * f3_19;
  u128 t1 = (u128)f0_2 * f1 + (u128)(2 * f2) * f4_19 + (u128)f3 * f3_19;
  u128 t2 = (u128)f0_2 * f2 + (u128)f1 * f1 + (u128)(2 * f3) * f4_19;
  u128 t3 = (u128)f0_2 * f3 + (u128)f1_2 * f2 + (u128)f4 * f4_19;
  u128 t4 = (u128)f0_2 * f4 + (u128)f1_2 * f3 + (u128)f2 * f2;

  carry_product(h, t0, t1, t2, t3, t4);
}

void fe_mul_small(Fe& h, const Fe& f, u64 n) {
  carry_product(h, (u128)f.v[0] * n, (u128)f.v[1] * n, (u128)f.v[2] * n,
                (u128)f.v[3] * n, (u128)f.v[4] * n);
}

void fe_cswap(Fe& f, Fe& g, u64 b) {
  u64 mask = 0 - b;
  for (int i = 0; i < 5; ++i) {
    u64 x = mask & (f.v[i] ^ g.v[i]);
    f.v[i] ^= x;
    g.v[i] ^= x;
  }
}

void fe_cmov(Fe& h, const Fe& f, u64 b) {
  u64 mask = 0 - b;
  for (int i = 0; i < 5; ++i) {
    h.v[i] ^= mask & (h.v[i] ^ f.v[i]);
  }
}

namespace {
// h = f^(2^n) via n squarings.
void fe_sqn(Fe& h, const Fe& f, int n) {
  fe_sq(h, f);
  for (int i = 1; i < n; ++i) fe_sq(h, h);
}
}  // namespace

void fe_invert(Fe& out, const Fe& z) {
  // Addition chain for p-2 = 2^255 - 21 (standard ref10 chain).
  Fe t0, t1, t2, t3;
  fe_sq(t0, z);                 // 2
  fe_sqn(t1, t0, 2);            // 8
  fe_mul(t1, z, t1);            // 9
  fe_mul(t0, t0, t1);           // 11
  fe_sq(t2, t0);                // 22
  fe_mul(t1, t1, t2);           // 31 = 2^5 - 1
  fe_sqn(t2, t1, 5);            // 2^10 - 2^5
  fe_mul(t1, t2, t1);           // 2^10 - 1
  fe_sqn(t2, t1, 10);           // 2^20 - 2^10
  fe_mul(t2, t2, t1);           // 2^20 - 1
  fe_sqn(t3, t2, 20);           // 2^40 - 2^20
  fe_mul(t2, t3, t2);           // 2^40 - 1
  fe_sqn(t2, t2, 10);           // 2^50 - 2^10
  fe_mul(t1, t2, t1);           // 2^50 - 1
  fe_sqn(t2, t1, 50);           // 2^100 - 2^50
  fe_mul(t2, t2, t1);           // 2^100 - 1
  fe_sqn(t3, t2, 100);          // 2^200 - 2^100
  fe_mul(t2, t3, t2);           // 2^200 - 1
  fe_sqn(t2, t2, 50);           // 2^250 - 2^50
  fe_mul(t1, t2, t1);           // 2^250 - 1
  fe_sqn(t1, t1, 5);            // 2^255 - 2^5
  fe_mul(out, t1, t0);          // 2^255 - 21
}

void fe_pow22523(Fe& out, const Fe& z) {
  // z^((p-5)/8) = z^(2^252 - 3) (standard ref10 chain).
  Fe t0, t1, t2;
  fe_sq(t0, z);                 // 2
  fe_sqn(t1, t0, 2);            // 8
  fe_mul(t1, z, t1);            // 9
  fe_mul(t0, t0, t1);           // 11
  fe_sq(t0, t0);                // 22
  fe_mul(t0, t1, t0);           // 31
  fe_sqn(t1, t0, 5);            // 2^10 - 2^5
  fe_mul(t0, t1, t0);           // 2^10 - 1
  fe_sqn(t1, t0, 10);           // 2^20 - 2^10
  fe_mul(t1, t1, t0);           // 2^20 - 1
  fe_sqn(t2, t1, 20);           // 2^40 - 2^20
  fe_mul(t1, t2, t1);           // 2^40 - 1
  fe_sqn(t1, t1, 10);           // 2^50 - 2^10
  fe_mul(t0, t1, t0);           // 2^50 - 1
  fe_sqn(t1, t0, 50);           // 2^100 - 2^50
  fe_mul(t1, t1, t0);           // 2^100 - 1
  fe_sqn(t2, t1, 100);          // 2^200 - 2^100
  fe_mul(t1, t2, t1);           // 2^200 - 1
  fe_sqn(t1, t1, 50);           // 2^250 - 2^50
  fe_mul(t0, t1, t0);           // 2^250 - 1
  fe_sqn(t0, t0, 2);            // 2^252 - 4
  fe_mul(out, t0, z);           // 2^252 - 3
}

bool fe_is_zero(const Fe& f) {
  std::uint8_t s[32];
  fe_tobytes(s, f);
  std::uint8_t acc = 0;
  for (auto b : s) acc |= b;
  return acc == 0;
}

bool fe_is_negative(const Fe& f) {
  std::uint8_t s[32];
  fe_tobytes(s, f);
  return (s[0] & 1) != 0;
}

void fe_sub_2p(Fe& h, const Fe& f, const Fe& g) {
  h.v[0] = f.v[0] + 0xFFFFFFFFFFFDAULL - g.v[0];
  h.v[1] = f.v[1] + 0xFFFFFFFFFFFFEULL - g.v[1];
  h.v[2] = f.v[2] + 0xFFFFFFFFFFFFEULL - g.v[2];
  h.v[3] = f.v[3] + 0xFFFFFFFFFFFFEULL - g.v[3];
  h.v[4] = f.v[4] + 0xFFFFFFFFFFFFEULL - g.v[4];
}

// flatten inlines every field operation into the step, so it runs as
// straight-line code; the state stays in locals until the end, because a
// store through an output reference could alias u and force reloads.
[[gnu::flatten]] void fe_x25519_ladder(const std::array<std::uint8_t, 32>& k,
                                       const std::array<std::uint8_t, 32>& u,
                                       Fe& x_out, Fe& z_out) {
  Fe x1, x2, z2, x3, z3;
  fe_frombytes(x1, u.data());
  fe_one(x2);
  fe_zero(z2);
  fe_copy(x3, x1);
  fe_one(z3);

  std::uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = k_t;

    Fe a, aa, b, bb, e, c, d, da, cb, tmp;
    fe_add(a, x2, z2);
    fe_sq(aa, a);
    fe_sub_2p(b, x2, z2);
    fe_sq(bb, b);
    fe_sub_2p(e, aa, bb);
    fe_add(c, x3, z3);
    fe_sub_2p(d, x3, z3);
    fe_mul(da, d, a);
    fe_mul(cb, c, b);
    fe_add(tmp, da, cb);
    fe_sq(x3, tmp);
    fe_sub_2p(tmp, da, cb);
    fe_sq(tmp, tmp);
    fe_mul(z3, x1, tmp);
    fe_mul(x2, aa, bb);
    fe_mul_small(tmp, e, 121665);
    fe_add(tmp, aa, tmp);
    fe_mul(z2, e, tmp);
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);
  x_out = x2;
  z_out = z2;
}

}  // namespace drum::crypto
