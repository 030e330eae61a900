// HMAC-SHA256 (RFC 2104), plus HKDF-SHA256 (RFC 5869).
// Used to authenticate encrypted-port boxes and to derive pairwise session
// keys from X25519 shared secrets.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "drum/crypto/sha256.hpp"
#include "drum/util/bytes.hpp"

namespace drum::crypto {

/// HMAC-SHA256(key, data).
Sha256::Digest hmac_sha256(util::ByteSpan key, util::ByteSpan data);

/// HMAC-SHA256 over many independent (key, data) pairs at once. Runs the
/// inner and outer hashes as two sha256_batch passes (8-lane AVX2 when
/// available), so a flood of port-boxed control frames authenticates at
/// multi-buffer throughput. `keys.size()` must equal `datas.size()`; digest
/// i is exactly hmac_sha256(keys[i], datas[i]).
std::vector<Sha256::Digest> hmac_sha256_batch(
    std::span<const util::ByteSpan> keys,
    std::span<const util::ByteSpan> datas);

/// HKDF-SHA256 extract-then-expand (RFC 5869). `out_len` <= 255*32.
util::Bytes hkdf_sha256(util::ByteSpan ikm, util::ByteSpan salt,
                        std::string_view info, std::size_t out_len);

}  // namespace drum::crypto
