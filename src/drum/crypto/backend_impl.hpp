// Internal declarations of the per-backend SHA-256 block functions assembled
// into Backend tables by backend.cpp. Scalar entry points live in sha256.cpp
// next to the reference implementation; ISA-specific ones live in their own
// translation units (sha256_shani.cpp, sha256_avx2.cpp) compiled with the
// matching -m flags. Not installed / not part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>

namespace drum::crypto::detail {

void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks);
void sha256_compress_x8_scalar(std::uint32_t states[8][8],
                               const std::uint8_t* const blocks[8],
                               std::size_t nblocks);

#if defined(DRUM_CRYPTO_HAVE_SHANI)
// SHA extensions (one block per ~64 cycles); requires SHA-NI + SSSE3 + SSE4.1.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                           std::size_t nblocks);
#endif

#if defined(DRUM_CRYPTO_HAVE_AVX2)
// Eight-lane multi-buffer SHA-256 (one 32-bit op per lane per instruction).
void sha256_compress_x8_avx2(std::uint32_t states[8][8],
                             const std::uint8_t* const blocks[8],
                             std::size_t nblocks);
#endif

}  // namespace drum::crypto::detail
