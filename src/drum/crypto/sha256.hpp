// SHA-256 (FIPS 180-4). The incremental (init/update/final) form of the
// primitive; the one-shot form lives in drum/crypto/api.hpp. The block
// compression routes through the active crypto::Backend (scalar reference
// or SHA-NI — see backend.hpp), both of which are bit-identical and
// verified against the NIST example vectors in
// tests/crypto_test.cpp and per-backend in tests/crypto_backend_test.cpp.
//
// Used for: message digests in gossip digests, message ids, HMAC-SHA256,
// and certificate fingerprints.
#pragma once

#include <array>
#include <cstdint>

#include "drum/util/bytes.hpp"

namespace drum::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  /// Incremental interface: construct (init), update repeatedly, final.
  void update(util::ByteSpan data);
  /// Finalizes and returns the digest. The object must not be reused after.
  Digest final();

 private:
  std::array<std::uint32_t, 8> state_;
  std::uint64_t bits_ = 0;
  std::array<std::uint8_t, kBlockSize> buf_{};
  std::size_t buf_len_ = 0;
};

}  // namespace drum::crypto
