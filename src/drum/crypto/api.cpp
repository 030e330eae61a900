#include "drum/crypto/api.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "drum/crypto/backend.hpp"

namespace drum::crypto {

namespace {

constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};

// FIPS 180-4 padding + final compression on a raw state, for lanes peeled
// off the multi-buffer path. `tail` is the sub-block remainder (< 64 bytes),
// `total` the full message length in bytes.
Sha256::Digest sha256_state_final(std::uint32_t state[8],
                                  const std::uint8_t* tail, std::size_t tail_len,
                                  std::uint64_t total, const Backend& be) {
  std::uint8_t buf[128] = {};
  if (tail_len > 0) std::memcpy(buf, tail, tail_len);
  buf[tail_len] = 0x80;
  const std::size_t padded = (tail_len + 1 + 8 <= 64) ? 64 : 128;
  const std::uint64_t bits = total * 8;
  for (int i = 0; i < 8; ++i) {
    buf[padded - 8 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  be.sha256_compress(state, buf, padded / 64);
  Sha256::Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

}  // namespace

Sha256::Digest sha256(util::ByteSpan data) {
  Sha256 h;
  h.update(data);
  return h.final();
}

Sha512::Digest sha512(util::ByteSpan data) {
  Sha512 h;
  h.update(data);
  return h.final();
}

std::vector<Sha256::Digest> sha256_batch(
    std::span<const util::ByteSpan> messages) {
  std::vector<Sha256::Digest> out(messages.size());
  const Backend& be = active_backend();
  std::size_t i = 0;
  for (; i + 8 <= messages.size(); i += 8) {
    // Lockstep over the block count every lane still has; per-lane leftovers
    // (length differences + sub-block tails) finish single-stream.
    std::uint32_t states[8][8];
    const std::uint8_t* ptrs[8];
    std::size_t common_blocks = std::numeric_limits<std::size_t>::max();
    for (int lane = 0; lane < 8; ++lane) {
      std::memcpy(states[lane], kSha256Iv, sizeof kSha256Iv);
      ptrs[lane] = messages[i + lane].data();
      common_blocks = std::min(common_blocks, messages[i + lane].size() / 64);
    }
    if (common_blocks > 0) be.sha256_compress_x8(states, ptrs, common_blocks);
    for (int lane = 0; lane < 8; ++lane) {
      const util::ByteSpan m = messages[i + lane];
      std::size_t off = common_blocks * 64;
      if (const std::size_t rest = (m.size() - off) / 64) {
        be.sha256_compress(states[lane], m.data() + off, rest);
        off += rest * 64;
      }
      out[i + lane] = sha256_state_final(states[lane], m.data() + off,
                                         m.size() - off, m.size(), be);
    }
  }
  for (; i < messages.size(); ++i) out[i] = sha256(messages[i]);
  return out;
}

}  // namespace drum::crypto
