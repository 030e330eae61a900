// Field arithmetic of GF(2^255 - 19) on four elements at once, with AVX-512
// IFMA, and the two routines built on it:
//   * the X25519 Montgomery ladder (RFC 7748 §5) on four points at once:
//     four clamped scalars and four u-coordinates, one pair per lane.
//     x25519_batch runs its (scalar, point) pairs through here four at a
//     time;
//   * the square-root exponentiation of Ed25519 decompression,
//     f^((p-5)/8), on four elements at once, which the Ed25519 batch parse
//     runs on R's root inputs four at a time.
// Both run when the active backend carries this kernel (backend.cpp: CPUID
// and XGETBV report AVX512F, AVX512VL and AVX512IFMA, with the opmask and
// ZMM state enabled by the OS). The scalar ladder and fe_pow22523 in
// fe25519.cpp stay the reference.
//
// Layout. A field element keeps fe25519's five 51-bit limbs; Fe4 holds
// four of them in five 256-bit registers, limb i of lane l in lane l of
// v[i]. 256-bit registers, not 512: an eight-lane build of the same ladder
// cost 23–40% more per call, so it lost on the two to four points a round
// tick or a shard pass derives.
//
// Limb bound. vpmadd52luq/vpmadd52huq read only the low 52 bits of each
// multiplicand and silently drop the rest, so every element that reaches a
// multiplication has limbs below 2^52. Every function below returns limbs
// below 2^51 + 2^17 ("tight4") through one parallel carry, and takes tight4
// inputs; the ladder's inputs (fe_frombytes output, 0 and 1) are below
// 2^51. A product's column sums stay below 2^56 and its reduced sums below
// 2^61, so no 64-bit lane wraps.
//
// Constant time. Each lane has its own scalar, so each lane needs its own
// swap mask. The four scalars are loaded once and transposed so that one
// register holds the same 64-bit word of every scalar; each step shifts the
// current bit of every lane to the bottom (a vector shift), XORs it into
// the lane's swap bit and negates that into an all-ones or all-zero lane
// mask, which swaps (x2, z2) with (x3, z3) by AND and XOR. No branch and no
// memory index depends on a scalar; the loops read scalar words at indices
// that depend on the loop counter alone.
//
// The exponentiation is fe_pow22523's ref10 addition chain, 251 squarings
// and 11 multiplications, on the same mul and sq as the ladder. Its inputs
// are fe_mul outputs, whose limbs are below 2^51 + 2^13, so tight4.
//
// This TU is compiled with -mavx512f -mavx512vl -mavx512ifma (see
// crypto/CMakeLists.txt) and uses no inline function from another header,
// so no AVX-512 code can leak into a function the rest of the binary links;
// the guard keeps it an empty TU if those flags are ever dropped. The
// unroll pragmas keep every register array in registers at -O2 as well,
// where GCC would otherwise leave the limb loops rolled.
#include "drum/crypto/backend_impl.hpp"

#if defined(DRUM_CRYPTO_HAVE_IFMA) && defined(__AVX512IFMA__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include "drum/crypto/fe25519.hpp"

namespace drum::crypto::detail {

namespace {

struct Fe4 {
  __m256i v[5];
};

__m256i splat(std::uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

// z + the low 52 bits of x * y (x, y below 2^52).
__m256i madd_lo(__m256i z, __m256i x, __m256i y) {
  return _mm256_madd52lo_epu64(z, x, y);
}

// z + bits 52..103 of x * y (x, y below 2^52).
__m256i madd_hi(__m256i z, __m256i x, __m256i y) {
  return _mm256_madd52hi_epu64(z, x, y);
}

__m256i times19(__m256i x) {
  return _mm256_add_epi64(
      x, _mm256_add_epi64(_mm256_slli_epi64(x, 1), _mm256_slli_epi64(x, 4)));
}

// One carry per limb, all limbs at once: limb k keeps its low 51 bits and
// takes limb k-1's carry; the top carry wraps around times 19
// (2^255 = 19 mod p). With every s[k] below 2^62 the carries are below
// 2^11, so the result is tight4.
Fe4 carry(const __m256i s[5]) {
  const __m256i mask = splat((std::uint64_t{1} << 51) - 1);
  Fe4 h{};
  #pragma GCC unroll 25
  for (int k = 0; k < 5; ++k) {
    h.v[k] = _mm256_and_si256(s[k], mask);
  }
  #pragma GCC unroll 25
  for (int k = 0; k < 4; ++k) {
    h.v[k + 1] = _mm256_add_epi64(h.v[k + 1], _mm256_srli_epi64(s[k], 51));
  }
  h.v[0] = madd_lo(h.v[0], _mm256_srli_epi64(s[4], 51), splat(19));
  return h;
}

// Reduces the columns of a product: lo[k] holds low halves worth 2^(51k),
// hi[k] high halves worth 2^52 * 2^(51k) = 2 * 2^(51(k+1)). Column k of
// the full product is t[k] = lo[k] + 2 hi[k-1], below 15 * 2^52 when each
// lo[k] and hi[k] sums at most five halves; columns 5..9 fold onto 0..4
// times 19.
Fe4 reduce(const __m256i lo[9], const __m256i hi[9]) {
  __m256i t[10] = {};
  t[0] = lo[0];
  #pragma GCC unroll 25
  for (int k = 1; k < 9; ++k) {
    t[k] = _mm256_add_epi64(lo[k], _mm256_slli_epi64(hi[k - 1], 1));
  }
  t[9] = _mm256_slli_epi64(hi[8], 1);
  __m256i s[5] = {};
  #pragma GCC unroll 25
  for (int k = 0; k < 5; ++k) {
    s[k] = _mm256_add_epi64(t[k], times19(t[k + 5]));
  }
  return carry(s);
}

Fe4 mul(const Fe4& f, const Fe4& g) {
  __m256i lo[9] = {};
  __m256i hi[9] = {};
  #pragma GCC unroll 25
  for (int i = 0; i < 5; ++i) {
    #pragma GCC unroll 25
    for (int j = 0; j < 5; ++j) {
      lo[i + j] = madd_lo(lo[i + j], f.v[i], g.v[j]);
      hi[i + j] = madd_hi(hi[i + j], f.v[i], g.v[j]);
    }
  }
  return reduce(lo, hi);
}

// mul(f, f) from 15 products: each cross product f_i f_j (i < j) once,
// doubled as a column sum (doubling a limb could cross 2^52).
Fe4 sq(const Fe4& f) {
  __m256i lo[9] = {};
  __m256i hi[9] = {};
  #pragma GCC unroll 25
  for (int i = 0; i < 5; ++i) {
    #pragma GCC unroll 25
    for (int j = i + 1; j < 5; ++j) {
      lo[i + j] = madd_lo(lo[i + j], f.v[i], f.v[j]);
      hi[i + j] = madd_hi(hi[i + j], f.v[i], f.v[j]);
    }
  }
  #pragma GCC unroll 25
  for (int k = 0; k < 9; ++k) {
    lo[k] = _mm256_slli_epi64(lo[k], 1);
    hi[k] = _mm256_slli_epi64(hi[k], 1);
  }
  #pragma GCC unroll 25
  for (int i = 0; i < 5; ++i) {
    lo[i + i] = madd_lo(lo[i + i], f.v[i], f.v[i]);
    hi[i + i] = madd_hi(hi[i + i], f.v[i], f.v[i]);
  }
  return reduce(lo, hi);
}

Fe4 add(const Fe4& f, const Fe4& g) {
  __m256i s[5] = {};
  #pragma GCC unroll 25
  for (int k = 0; k < 5; ++k) {
    s[k] = _mm256_add_epi64(f.v[k], g.v[k]);
  }
  return carry(s);
}

// f - g + 2p: 2p's limbs (2^52 - 38, then 2^52 - 2) exceed a tight4 g's.
Fe4 sub(const Fe4& f, const Fe4& g) {
  __m256i s[5] = {};
  #pragma GCC unroll 25
  for (int k = 0; k < 5; ++k) {
    const std::uint64_t two_p =
        k == 0 ? (std::uint64_t{1} << 52) - 38 : (std::uint64_t{1} << 52) - 2;
    s[k] = _mm256_sub_epi64(_mm256_add_epi64(f.v[k], splat(two_p)), g.v[k]);
  }
  return carry(s);
}

// f + 121665 g (a24, RFC 7748 §5): g's limb products with a24 are below
// 2^69, so their high halves are below 2^17 and the wrapped one times
// 2 * 19 stays one multiply-add.
Fe4 add_a24(const Fe4& f, const Fe4& g) {
  const __m256i a24 = splat(121665);
  __m256i s[5] = {};
  __m256i hi[5] = {};
  #pragma GCC unroll 25
  for (int k = 0; k < 5; ++k) {
    s[k] = madd_lo(f.v[k], g.v[k], a24);
    hi[k] = madd_hi(hi[k], g.v[k], a24);
  }
  #pragma GCC unroll 25
  for (int k = 1; k < 5; ++k) {
    s[k] = _mm256_add_epi64(s[k], _mm256_slli_epi64(hi[k - 1], 1));
  }
  s[0] = madd_lo(s[0], hi[4], splat(38));
  return carry(s);
}

void cswap(Fe4& f, Fe4& g, __m256i mask) {
  #pragma GCC unroll 25
  for (int k = 0; k < 5; ++k) {
    const __m256i x = _mm256_and_si256(mask, _mm256_xor_si256(f.v[k], g.v[k]));
    f.v[k] = _mm256_xor_si256(f.v[k], x);
    g.v[k] = _mm256_xor_si256(g.v[k], x);
  }
}

// Lane l of the result holds f[l].
Fe4 load4(const Fe* f) {
  Fe4 h{};
  #pragma GCC unroll 25
  for (int i = 0; i < 5; ++i) {
    h.v[i] = _mm256_set_epi64x(
        static_cast<long long>(f[3].v[i]), static_cast<long long>(f[2].v[i]),
        static_cast<long long>(f[1].v[i]), static_cast<long long>(f[0].v[i]));
  }
  return h;
}

// out[l] = lane l of h.
void store4(const Fe4& h, Fe* out) {
  #pragma GCC unroll 25
  for (int i = 0; i < 5; ++i) {
    alignas(32) std::uint64_t limb[4] = {};
    _mm256_store_si256(reinterpret_cast<__m256i*>(limb), h.v[i]);
    #pragma GCC unroll 25
    for (int l = 0; l < 4; ++l) out[l].v[i] = limb[l];
  }
}

// f^(2^n), n >= 1.
Fe4 sqn(Fe4 f, int n) {
  for (int i = 0; i < n; ++i) f = sq(f);
  return f;
}

// n in every lane, for n < 2^51.
Fe4 from_small(std::uint64_t n) {
  Fe4 h{};
  h.v[0] = splat(n);
  return h;
}

// One ladder step (RFC 7748 §5) on (x2 : z2), (x3 : z3), after the swap.
void ladder_step(const Fe4& x1, Fe4& x2, Fe4& z2, Fe4& x3, Fe4& z3) {
  const Fe4 a = add(x2, z2);
  const Fe4 aa = sq(a);
  const Fe4 b = sub(x2, z2);
  const Fe4 bb = sq(b);
  const Fe4 e = sub(aa, bb);
  const Fe4 c = add(x3, z3);
  const Fe4 d = sub(x3, z3);
  const Fe4 da = mul(d, a);
  const Fe4 cb = mul(c, b);
  x3 = sq(add(da, cb));
  z3 = mul(x1, sq(sub(da, cb)));
  x2 = mul(aa, bb);
  z2 = mul(e, add_a24(aa, e));
}

}  // namespace

// flatten inlines every helper above into the step, as fe_x25519_ladder
// does, so the state stays in registers.
[[gnu::flatten]] void x25519_ladder_x4_ifma(const std::uint8_t* const k[4],
                                            const Fe* u, Fe* x_out,
                                            Fe* z_out) {
  const Fe4 x1 = load4(u);
  Fe4 x2 = from_small(1);
  Fe4 z2 = from_small(0);
  Fe4 x3 = x1;
  Fe4 z3 = from_small(1);

  // Transpose the four scalars, read as little-endian 64-bit words, so that
  // kw[w] holds word w of lane l's scalar in lane l: bit t of that scalar
  // is bit t % 64 of lane l of kw[t / 64].
  __m256i kw[4] = {};
  {
    __m256i r[4] = {};
    #pragma GCC unroll 25
    for (int l = 0; l < 4; ++l) {
      r[l] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k[l]));
    }
    const __m256i lo01 = _mm256_unpacklo_epi64(r[0], r[1]);
    const __m256i hi01 = _mm256_unpackhi_epi64(r[0], r[1]);
    const __m256i lo23 = _mm256_unpacklo_epi64(r[2], r[3]);
    const __m256i hi23 = _mm256_unpackhi_epi64(r[2], r[3]);
    kw[0] = _mm256_permute2x128_si256(lo01, lo23, 0x20);
    kw[1] = _mm256_permute2x128_si256(hi01, hi23, 0x20);
    kw[2] = _mm256_permute2x128_si256(lo01, lo23, 0x31);
    kw[3] = _mm256_permute2x128_si256(hi01, hi23, 0x31);
  }

  // Bits 254 down to 0: word 3 from its bit 62 (bit 255 is not part of a
  // clamped scalar), then words 2, 1 and 0 from their bit 63. `bits` keeps
  // each lane's next bit at the top.
  const __m256i zero = _mm256_setzero_si256();
  __m256i swap = zero;
  for (int w = 3; w >= 0; --w) {
    __m256i bits = w == 3 ? _mm256_slli_epi64(kw[3], 1) : kw[w];
    for (int b = w == 3 ? 62 : 63; b >= 0; --b) {
      const __m256i k_t = _mm256_srli_epi64(bits, 63);
      bits = _mm256_slli_epi64(bits, 1);
      const __m256i mask = _mm256_sub_epi64(zero, _mm256_xor_si256(swap, k_t));
      cswap(x2, x3, mask);
      cswap(z2, z3, mask);
      swap = k_t;
      ladder_step(x1, x2, z2, x3, z3);
    }
  }
  const __m256i mask = _mm256_sub_epi64(zero, swap);
  cswap(x2, x3, mask);
  cswap(z2, z3, mask);

  store4(x2, x_out);
  store4(z2, z_out);
}

// z^((p-5)/8) = z^(2^252 - 3), fe_pow22523's chain.
[[gnu::flatten]] void fe_pow22523_x4_ifma(const Fe* f, Fe* out) {
  const Fe4 z = load4(f);
  Fe4 t0 = sq(z);                  // 2
  Fe4 t1 = mul(z, sqn(t0, 2));     // 9
  t0 = mul(t0, t1);                // 11
  t0 = mul(t1, sq(t0));            // 31 = 2^5 - 1
  t0 = mul(sqn(t0, 5), t0);        // 2^10 - 1
  t1 = mul(sqn(t0, 10), t0);       // 2^20 - 1
  t1 = mul(sqn(t1, 20), t1);       // 2^40 - 1
  t0 = mul(sqn(t1, 10), t0);       // 2^50 - 1
  t1 = mul(sqn(t0, 50), t0);       // 2^100 - 1
  t1 = mul(sqn(t1, 100), t1);      // 2^200 - 1
  t0 = mul(sqn(t1, 50), t0);       // 2^250 - 1
  store4(mul(sqn(t0, 2), z), out);  // 2^252 - 3
}

}  // namespace drum::crypto::detail

#endif  // DRUM_CRYPTO_HAVE_IFMA && __AVX512IFMA__ && __AVX512VL__
