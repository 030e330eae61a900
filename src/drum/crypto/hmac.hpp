// HMAC-SHA256 (RFC 2104), plus HKDF-SHA256 (RFC 5869).
// Used to authenticate encrypted-port boxes, one box per call, and to derive
// pairwise session keys from X25519 shared secrets.
#pragma once

#include <cstddef>
#include <string_view>

#include "drum/crypto/sha256.hpp"
#include "drum/util/bytes.hpp"

namespace drum::crypto {

/// HMAC-SHA256(key, data).
Sha256::Digest hmac_sha256(util::ByteSpan key, util::ByteSpan data);

/// HKDF-SHA256 extract-then-expand (RFC 5869). `out_len` <= 255*32.
util::Bytes hkdf_sha256(util::ByteSpan ikm, util::ByteSpan salt,
                        std::string_view info, std::size_t out_len);

}  // namespace drum::crypto
