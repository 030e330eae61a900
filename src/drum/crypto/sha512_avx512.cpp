// SHA-512 (FIPS 180-4) of four messages at once, one per 64-bit lane of
// 256-bit registers, with AVX-512F/VL's rotate (vprorq) and three-input
// logic (vpternlogq). The Ed25519 batch parse hashes its challenges
// R || A || M through here four at a time when the active backend carries
// this kernel (backend.cpp: CPUID and XGETBV report AVX512F and AVX512VL,
// with the opmask and ZMM state enabled by the OS). Sha512 in sha512.cpp
// stays the reference, and the two share its round constants.
//
// Lengths. The messages may all differ in length. Each lane runs its whole
// 128-byte blocks straight from its message and then one or two tail
// blocks: the last partial block copied out, the 0x80 byte, zeros and the
// bit length. A lane whose message has ended runs the remaining blocks on
// dummy data and keeps its state under a mask, so the call costs the
// longest message's block count. No lane reads past its message's last
// byte.
//
// Four lanes of 256 bits, not eight of 512: an eight-lane build cost about
// twice as much per call, so it saved nothing per message even when full,
// and a verify batch of about five to ten signatures would often leave
// half of it empty.
//
// This TU is compiled with -mavx512f -mavx512vl (see crypto/CMakeLists.txt)
// and uses no inline function from another header, so no AVX-512 code can
// leak into a function the rest of the binary links; the guard keeps it an
// empty TU if those flags are ever dropped.
#include "drum/crypto/backend_impl.hpp"

#if defined(DRUM_CRYPTO_HAVE_AVX512) && defined(__AVX512F__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include <cstring>

namespace drum::crypto::detail {

namespace {

constexpr std::size_t kBlock = 128;

__m256i splat(std::uint64_t x) {
  return _mm256_set1_epi64x(static_cast<long long>(x));
}

__m256i add(__m256i x, __m256i y) { return _mm256_add_epi64(x, y); }

__m256i xor3(__m256i x, __m256i y, __m256i z) {
  return _mm256_ternarylogic_epi64(x, y, z, 0x96);
}

// Reverses the bytes of each 64-bit lane: message words are big-endian.
__m256i bswap64(__m256i x) {
  const __m256i order = _mm256_set_epi8(
      8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,  //
      8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_shuffle_epi8(x, order);
}

// Transposes a 4x4 matrix of 64-bit words in place: word k of r[l] becomes
// word l of r[k].
void transpose(__m256i r[4]) {
  const __m256i lo01 = _mm256_unpacklo_epi64(r[0], r[1]);
  const __m256i hi01 = _mm256_unpackhi_epi64(r[0], r[1]);
  const __m256i lo23 = _mm256_unpacklo_epi64(r[2], r[3]);
  const __m256i hi23 = _mm256_unpackhi_epi64(r[2], r[3]);
  r[0] = _mm256_permute2x128_si256(lo01, lo23, 0x20);
  r[1] = _mm256_permute2x128_si256(hi01, hi23, 0x20);
  r[2] = _mm256_permute2x128_si256(lo01, lo23, 0x31);
  r[3] = _mm256_permute2x128_si256(hi01, hi23, 0x31);
}

// One block of every lane, lane l's from block[l]; only the lanes set in
// `active` add the result into their state.
void compress(__m256i state[8], const std::uint8_t* const block[4],
              __mmask8 active) {
  // w[t]: word t of every lane's block, lane l in lane l.
  __m256i w[16];
  #pragma GCC unroll 4
  for (int q = 0; q < 4; ++q) {
    __m256i r[4];
    #pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      r[l] = bswap64(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block[l] + 32 * q)));
    }
    transpose(r);
    #pragma GCC unroll 4
    for (int k = 0; k < 4; ++k) w[4 * q + k] = r[k];
  }
  __m256i a = state[0], b = state[1], c = state[2], d = state[3];
  __m256i e = state[4], f = state[5], g = state[6], h = state[7];
  #pragma GCC unroll 16
  for (int t = 0; t < 80; ++t) {
    if (t >= 16) {
      // w[t] = σ1(w[t-2]) + w[t-7] + σ0(w[t-15]) + w[t-16], over a ring of 16.
      const __m256i w15 = w[(t + 1) & 15];
      const __m256i w2 = w[(t + 14) & 15];
      const __m256i s0 = xor3(_mm256_ror_epi64(w15, 1),
                              _mm256_ror_epi64(w15, 8),
                              _mm256_srli_epi64(w15, 7));
      const __m256i s1 = xor3(_mm256_ror_epi64(w2, 19),
                              _mm256_ror_epi64(w2, 61),
                              _mm256_srli_epi64(w2, 6));
      w[t & 15] = add(add(w[t & 15], s0), add(w[(t + 9) & 15], s1));
    }
    const __m256i big_s1 = xor3(_mm256_ror_epi64(e, 14),
                                _mm256_ror_epi64(e, 18),
                                _mm256_ror_epi64(e, 41));
    const __m256i ch = _mm256_ternarylogic_epi64(e, f, g, 0xCA);  // e ? f : g
    const __m256i t1 = add(add(add(h, big_s1), add(ch, splat(kSha512K[t]))),
                           w[t & 15]);
    const __m256i big_s0 = xor3(_mm256_ror_epi64(a, 28),
                                _mm256_ror_epi64(a, 34),
                                _mm256_ror_epi64(a, 39));
    const __m256i maj = _mm256_ternarylogic_epi64(a, b, c, 0xE8);
    h = g;
    g = f;
    f = e;
    e = add(d, t1);
    d = c;
    c = b;
    b = a;
    a = add(t1, add(big_s0, maj));
  }
  const __m256i out[8] = {a, b, c, d, e, f, g, h};
  #pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
    state[i] = _mm256_mask_add_epi64(state[i], active, state[i], out[i]);
  }
}

}  // namespace

void sha512_x4_avx512(const std::uint8_t* const msg[4],
                      const std::size_t len[4], std::uint8_t out[4][64]) {
  // Lane l: whole[l] blocks from msg[l], then the rest of blocks[l] from
  // tail[l].
  alignas(32) std::uint8_t tail[4][2 * kBlock];
  std::size_t whole[4] = {};
  std::size_t blocks[4] = {};
  std::size_t longest = 0;
  for (int l = 0; l < 4; ++l) {
    whole[l] = len[l] / kBlock;
    const std::size_t rest = len[l] % kBlock;
    const std::size_t tail_blocks = rest + 17 <= kBlock ? 1 : 2;
    std::memset(tail[l], 0, sizeof tail[l]);
    if (rest != 0) std::memcpy(tail[l], msg[l] + whole[l] * kBlock, rest);
    tail[l][rest] = 0x80;
    // The 128-bit big-endian bit length; its high 8 bytes stay zero.
    const std::uint64_t bits = static_cast<std::uint64_t>(len[l]) * 8;
    std::uint8_t* end = tail[l] + tail_blocks * kBlock;
    for (int i = 0; i < 8; ++i) {
      end[-1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
    blocks[l] = whole[l] + tail_blocks;
    if (blocks[l] > longest) longest = blocks[l];
  }

  __m256i state[8];
  for (int i = 0; i < 8; ++i) state[i] = splat(kSha512Iv[i]);
  for (std::size_t b = 0; b < longest; ++b) {
    const std::uint8_t* block[4] = {};
    __mmask8 active = 0;
    for (int l = 0; l < 4; ++l) {
      if (b < whole[l]) {
        block[l] = msg[l] + b * kBlock;
      } else if (b < blocks[l]) {
        block[l] = tail[l] + (b - whole[l]) * kBlock;
      } else {
        block[l] = tail[l];  // ended: hashed, then masked off
      }
      if (b < blocks[l]) active = static_cast<__mmask8>(active | 1u << l);
    }
    compress(state, block, active);
  }

  // state[i] holds word i of every lane; transpose back to lane order and
  // store big-endian.
  for (int q = 0; q < 2; ++q) {
    __m256i r[4] = {state[4 * q], state[4 * q + 1], state[4 * q + 2],
                    state[4 * q + 3]};
    transpose(r);
    for (int l = 0; l < 4; ++l) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out[l] + 32 * q),
                          bswap64(r[l]));
    }
  }
}

}  // namespace drum::crypto::detail

#endif  // DRUM_CRYPTO_HAVE_AVX512 && __AVX512F__ && __AVX512VL__
