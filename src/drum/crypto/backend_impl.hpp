// Internal declarations of the per-backend kernels assembled into Backend
// tables by backend.cpp. The scalar SHA-256 entry point lives in sha256.cpp
// next to the reference implementation; each ISA kernel lives in its own
// translation unit compiled with the matching -m flags (sha256_shani.cpp,
// x25519_ifma.cpp). Not installed / not part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>

namespace drum::crypto {
struct Fe;
}  // namespace drum::crypto

namespace drum::crypto::detail {

void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks);

#if defined(DRUM_CRYPTO_HAVE_SHANI)
// SHA extensions (one block per ~64 cycles); requires SHA-NI + SSSE3 + SSE4.1.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                           std::size_t nblocks);
#endif

#if defined(DRUM_CRYPTO_HAVE_IFMA)
// Four X25519 ladders, a scalar per lane, on AVX-512 IFMA (256-bit lanes);
// requires AVX512F + AVX512VL + AVX512IFMA and OS-enabled ZMM state.
void x25519_ladder_x4_ifma(const std::uint8_t* const k[4], const Fe* u,
                           Fe* x_out, Fe* z_out);
#endif

}  // namespace drum::crypto::detail
