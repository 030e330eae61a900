// Internal declarations of the per-backend SHA-256 block functions assembled
// into Backend tables by backend.cpp. The scalar entry point lives in
// sha256.cpp next to the reference implementation; the SHA-NI one lives in
// its own translation unit (sha256_shani.cpp) compiled with the matching -m
// flags. Not installed / not part of the public API.
#pragma once

#include <cstddef>
#include <cstdint>

namespace drum::crypto::detail {

void sha256_compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t nblocks);

#if defined(DRUM_CRYPTO_HAVE_SHANI)
// SHA extensions (one block per ~64 cycles); requires SHA-NI + SSSE3 + SSE4.1.
void sha256_compress_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                           std::size_t nblocks);
#endif

}  // namespace drum::crypto::detail
