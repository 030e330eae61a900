#include "drum/crypto/chacha20.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace drum::crypto {

namespace {

constexpr std::size_t kKeySize = 32;
constexpr std::size_t kNonceSize = 12;

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

void run_block(const std::array<std::uint32_t, 16>& in,
               std::array<std::uint8_t, 64>& out) {
  std::array<std::uint32_t, 16> x = in;
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    std::uint32_t v = x[i] + in[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

}  // namespace

void chacha20_xor(util::ByteSpan key, util::ByteSpan nonce,
                  std::uint32_t counter, std::uint8_t* data, std::size_t len) {
  if (key.size() != kKeySize) throw std::invalid_argument("chacha20 key size");
  if (nonce.size() != kNonceSize) {
    throw std::invalid_argument("chacha20 nonce size");
  }
  std::array<std::uint32_t, 16> state{};
  state[0] = 0x61707865; state[1] = 0x3320646e;
  state[2] = 0x79622d32; state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);

  std::array<std::uint8_t, 64> keystream{};
  for (std::size_t off = 0; off < len; off += 64) {
    run_block(state, keystream);
    state[12] += 1;  // 32-bit block counter, wraps (RFC 8439 §2.3)
    const std::size_t n = std::min<std::size_t>(64, len - off);
    for (std::size_t i = 0; i < n; ++i) data[off + i] ^= keystream[i];
  }
}

util::Bytes chacha20_xor_copy(util::ByteSpan key, util::ByteSpan nonce,
                              std::uint32_t counter, util::ByteSpan data) {
  util::Bytes out(data.begin(), data.end());
  chacha20_xor(key, nonce, counter, out.data(), out.size());
  return out;
}

}  // namespace drum::crypto
