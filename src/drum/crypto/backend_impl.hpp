// Internal declarations of the per-backend kernels assembled into Backend
// tables by backend.cpp. The scalar SHA-256 entry point lives in sha256.cpp
// next to the reference implementation, and sha512.cpp defines the SHA-512
// constants its reference and its lane kernel share; each ISA kernel lives
// in its own translation unit compiled with the matching -m flags
// (sha256_shani.cpp, sha512_avx512.cpp, x25519_ifma.cpp). Not installed /
// not part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>

namespace drum::crypto {
struct Fe;
}  // namespace drum::crypto

namespace drum::crypto::detail {

void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks);

// SHA-512's round constants and initial hash value (FIPS 180-4 §4.2.3,
// §5.3.5).
extern const std::uint64_t kSha512K[80];
extern const std::uint64_t kSha512Iv[8];

#if defined(DRUM_CRYPTO_HAVE_SHANI)
// SHA extensions (one block per ~64 cycles); requires SHA-NI + SSSE3 + SSE4.1.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                           std::size_t nblocks);
#endif

#if defined(DRUM_CRYPTO_HAVE_AVX512)
// SHA-512 of four messages, one per 64-bit lane of 256-bit registers;
// requires AVX512F + AVX512VL and OS-enabled ZMM state.
void sha512_x4_avx512(const std::uint8_t* const msg[4],
                      const std::size_t len[4], std::uint8_t out[4][64]);
#endif

#if defined(DRUM_CRYPTO_HAVE_IFMA)
// Four X25519 ladders, a scalar per lane, and four square-root
// exponentiations, on AVX-512 IFMA (256-bit lanes); requires AVX512F +
// AVX512VL + AVX512IFMA and OS-enabled ZMM state.
void x25519_ladder_x4_ifma(const std::uint8_t* const k[4], const Fe* u,
                           Fe* x_out, Fe* z_out);
void fe_pow22523_x4_ifma(const Fe* f, Fe* out);
#endif

}  // namespace drum::crypto::detail
