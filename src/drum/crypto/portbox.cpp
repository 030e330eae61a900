#include "drum/crypto/portbox.hpp"

#include <cstring>
#include <stdexcept>

#include "drum/check/check.hpp"
#include "drum/crypto/api.hpp"
#include "drum/crypto/hmac.hpp"

namespace drum::crypto {

namespace {

// MAC over nonce || ciphertext, truncated.
std::array<std::uint8_t, kPortBoxTagSize> compute_tag(util::ByteSpan key,
                                                      util::ByteSpan nonce,
                                                      util::ByteSpan ct) {
  // Sized buffer + memcpy rather than insert-after-construct: GCC 12's
  // -Warray-bounds mis-attributes the vector growth to the fixed-size
  // nonce array the buffer was seeded from.
  util::Bytes mac_input(nonce.size() + ct.size());
  if (!nonce.empty()) {
    std::memcpy(mac_input.data(), nonce.data(), nonce.size());
  }
  if (!ct.empty()) {
    std::memcpy(mac_input.data() + nonce.size(), ct.data(), ct.size());
  }
  auto full = hmac_sha256(key, util::ByteSpan(mac_input.data(), mac_input.size()));
  std::array<std::uint8_t, kPortBoxTagSize> tag{};
  std::copy(full.begin(), full.begin() + kPortBoxTagSize, tag.begin());
  return tag;
}

}  // namespace

util::Bytes portbox_seal(util::ByteSpan key, util::ByteSpan plaintext,
                         util::Rng& rng) {
  if (key.size() != kPortBoxKeySize) {
    throw std::invalid_argument("portbox key size");
  }
  std::array<std::uint8_t, kPortBoxNonceSize> nonce;
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.below(256));
  // Checked builds: a (key, nonce) pair must never cover two different
  // plaintexts — that is keystream reuse, which breaks the stream cipher.
  // (A byte-identical replay is tolerated: deterministic simulations replay
  // seeded worlds on purpose; see check::note_nonce.)
  DRUM_INVARIANT(
      check::note_nonce(key, util::ByteSpan(nonce.data(), nonce.size()),
                        plaintext),
      "portbox nonce reuse under one pair key");

  util::Bytes ct = chacha20_xor_copy(
      key, util::ByteSpan(nonce.data(), nonce.size()), 1, plaintext);
  auto tag = compute_tag(key, util::ByteSpan(nonce.data(), nonce.size()),
                         util::ByteSpan(ct.data(), ct.size()));

  util::Bytes out(nonce.size() + ct.size() + tag.size());
  std::memcpy(out.data(), nonce.data(), nonce.size());
  if (!ct.empty()) {
    std::memcpy(out.data() + nonce.size(), ct.data(), ct.size());
  }
  std::memcpy(out.data() + nonce.size() + ct.size(), tag.data(), tag.size());
  return out;
}

std::optional<util::Bytes> portbox_open(util::ByteSpan key,
                                        util::ByteSpan box) {
  if (key.size() != kPortBoxKeySize) {
    throw std::invalid_argument("portbox key size");
  }
  if (box.size() < kPortBoxOverhead) return std::nullopt;
  auto nonce = box.subspan(0, kPortBoxNonceSize);
  auto ct = box.subspan(kPortBoxNonceSize,
                        box.size() - kPortBoxOverhead);
  auto tag = box.subspan(box.size() - kPortBoxTagSize);

  auto expected = compute_tag(key, nonce, ct);
  if (!util::ct_equal(util::ByteSpan(expected.data(), expected.size()), tag)) {
    return std::nullopt;
  }
  return chacha20_xor_copy(key, nonce, 1, ct);
}

util::Bytes portbox_seal_port(util::ByteSpan key, std::uint16_t port,
                              util::Rng& rng) {
  std::uint8_t pt[2] = {static_cast<std::uint8_t>(port),
                        static_cast<std::uint8_t>(port >> 8)};
  return portbox_seal(key, util::ByteSpan(pt, 2), rng);
}

std::optional<std::uint16_t> portbox_open_port(util::ByteSpan key,
                                               util::ByteSpan box) {
  auto pt = portbox_open(key, box);
  if (!pt || pt->size() != 2) return std::nullopt;
  return static_cast<std::uint16_t>((*pt)[0] | (*pt)[1] << 8);
}

}  // namespace drum::crypto
