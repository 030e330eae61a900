#include "drum/crypto/hmac.hpp"

#include <cstring>
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

std::vector<Sha256::Digest> hmac_sha256_batch(
    std::span<const util::ByteSpan> keys,
    std::span<const util::ByteSpan> datas) {
  if (keys.size() != datas.size()) {
    throw std::invalid_argument("hmac_sha256_batch: key/data count mismatch");
  }
  const std::size_t n = keys.size();
  if (n == 0) return {};

  // Inner pass: sha256((key ^ ipad) || data) for every pair, materialized as
  // contiguous buffers so the multi-buffer backend can run them in lockstep.
  std::vector<util::Bytes> inner_bufs(n);
  std::vector<util::ByteSpan> spans(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::array<std::uint8_t, Sha256::kBlockSize> k{};
    if (keys[i].size() > Sha256::kBlockSize) {
      auto d = sha256(keys[i]);
      std::copy(d.begin(), d.end(), k.begin());
    } else {
      std::copy(keys[i].begin(), keys[i].end(), k.begin());
    }
    util::Bytes& buf = inner_bufs[i];
    buf.resize(Sha256::kBlockSize + datas[i].size());
    for (std::size_t j = 0; j < Sha256::kBlockSize; ++j) {
      buf[j] = static_cast<std::uint8_t>(k[j] ^ 0x36);
    }
    if (!datas[i].empty()) {
      std::memcpy(buf.data() + Sha256::kBlockSize, datas[i].data(),
                  datas[i].size());
    }
    // Stash the opad block for the outer pass in place of the data tail
    // later; for now just record the span to hash.
    spans[i] = util::ByteSpan(buf.data(), buf.size());
  }
  auto inner = sha256_batch(std::span<const util::ByteSpan>(spans));

  // Outer pass: sha256((key ^ opad) || inner_digest). The key block is
  // recovered from the ipad buffer (x ^ 0x36 ^ 0x5c == x ^ opad's pad).
  std::vector<util::Bytes> outer_bufs(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::Bytes& buf = outer_bufs[i];
    buf.resize(Sha256::kBlockSize + Sha256::kDigestSize);
    for (std::size_t j = 0; j < Sha256::kBlockSize; ++j) {
      buf[j] = static_cast<std::uint8_t>(inner_bufs[i][j] ^ 0x36 ^ 0x5c);
    }
    std::memcpy(buf.data() + Sha256::kBlockSize, inner[i].data(),
                Sha256::kDigestSize);
    spans[i] = util::ByteSpan(buf.data(), buf.size());
  }
  return sha256_batch(std::span<const util::ByteSpan>(spans));
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
