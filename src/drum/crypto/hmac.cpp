#include "drum/crypto/hmac.hpp"

#include <algorithm>
#include <stdexcept>

#include "drum/crypto/api.hpp"

namespace drum::crypto {

Sha256::Digest hmac_sha256(util::ByteSpan key, util::ByteSpan data) {
  std::array<std::uint8_t, Sha256::kBlockSize> k{};
  if (key.size() > Sha256::kBlockSize) {
    auto d = sha256(key);
    std::copy(d.begin(), d.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, Sha256::kBlockSize> ipad{}, opad{};
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(util::ByteSpan(ipad.data(), ipad.size()));
  inner.update(data);
  auto inner_digest = inner.final();
  Sha256 outer;
  outer.update(util::ByteSpan(opad.data(), opad.size()));
  outer.update(util::ByteSpan(inner_digest.data(), inner_digest.size()));
  return outer.final();
}

util::Bytes hkdf_sha256(util::ByteSpan ikm, util::ByteSpan salt,
                        std::string_view info, std::size_t out_len) {
  if (out_len > 255 * Sha256::kDigestSize) {
    throw std::invalid_argument("hkdf output too long");
  }
  // Extract.
  auto prk = hmac_sha256(salt, ikm);
  // Expand.
  util::Bytes out;
  out.reserve(out_len);
  util::Bytes t;
  std::uint8_t counter = 1;
  while (out.size() < out_len) {
    util::Bytes block = t;
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    auto d = hmac_sha256(util::ByteSpan(prk.data(), prk.size()),
                         util::ByteSpan(block.data(), block.size()));
    t.assign(d.begin(), d.end());
    std::size_t take = std::min(t.size(), out_len - out.size());
    out.insert(out.end(), t.begin(), t.begin() + static_cast<long>(take));
  }
  return out;
}

}  // namespace drum::crypto
