// The "port box": authenticated encryption of the random ephemeral port
// numbers Drum advertises in pull-requests and push-offers (paper §4: "The
// random ports transmitted during the push and pull operations are
// encrypted ... in order to prevent an adversary from discovering them").
//
// Construction: encrypt-then-MAC. ChaCha20 under a pairwise key encrypts the
// payload; HMAC-SHA256 (truncated to 16 bytes) authenticates nonce+ciphertext.
// The pairwise key is derived from an X25519 shared secret via HKDF (see
// keys.hpp). A fresh random 12-byte nonce is carried alongside each box.
#pragma once

#include <cstdint>
#include <optional>

#include "drum/util/bytes.hpp"
#include "drum/util/rng.hpp"

namespace drum::crypto {

inline constexpr std::size_t kPortBoxNonceSize = 12;
inline constexpr std::size_t kPortBoxTagSize = 16;
inline constexpr std::size_t kPortBoxKeySize = 32;

/// Wire overhead added by seal() on top of the plaintext size.
inline constexpr std::size_t kPortBoxOverhead =
    kPortBoxNonceSize + kPortBoxTagSize;

/// Seals `plaintext` under `key`. The nonce is drawn from `rng`.
/// Output layout: nonce || ciphertext || tag.
util::Bytes portbox_seal(util::ByteSpan key, util::ByteSpan plaintext,
                         util::Rng& rng);

/// Opens a sealed box; returns nullopt if the tag does not verify or the
/// box is malformed. Constant-time tag comparison.
std::optional<util::Bytes> portbox_open(util::ByteSpan key,
                                        util::ByteSpan box);

/// Convenience for the common case of boxing a single u16 port.
util::Bytes portbox_seal_port(util::ByteSpan key, std::uint16_t port,
                              util::Rng& rng);
/// Opens one boxed port: nullopt on a bad tag, a malformed box, or a
/// plaintext that is not 2 bytes. Ingress opens each control frame's box
/// with this, one at a time (see IngressBatch::verify()).
std::optional<std::uint16_t> portbox_open_port(util::ByteSpan key,
                                               util::ByteSpan box);

}  // namespace drum::crypto
