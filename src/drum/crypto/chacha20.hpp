// ChaCha20 stream cipher (RFC 8439). Used together with HMAC-SHA256 in the
// encrypt-then-MAC "port box" that protects random port numbers on the wire
// (paper §4: "random ports ... are encrypted").
//
// One portable scalar routine produces every keystream byte. Its only caller,
// the port box, encrypts a 2-byte port — less than one 64-byte block — so
// block-parallel SIMD kernels would never run, and ChaCha20 has no
// crypto::Backend slot. Declared here and reached through
// drum/crypto/api.hpp like every other primitive.
#pragma once

#include <cstddef>
#include <cstdint>

#include "drum/util/bytes.hpp"

namespace drum::crypto {

/// One-shot ChaCha20: XORs the keystream for (key, nonce, counter) into
/// `data` in place. The 32-bit block counter starts at `counter` and wraps
/// (RFC 8439 §2.3). Throws std::invalid_argument unless `key` is 32 bytes
/// and `nonce` 12.
void chacha20_xor(util::ByteSpan key, util::ByteSpan nonce,
                  std::uint32_t counter, std::uint8_t* data, std::size_t len);

/// Copying form of chacha20_xor.
util::Bytes chacha20_xor_copy(util::ByteSpan key, util::ByteSpan nonce,
                              std::uint32_t counter, util::ByteSpan data);

}  // namespace drum::crypto
