// Crypto substrate tests: every primitive is checked against its published
// specification test vectors (FIPS 180-4, RFC 4231, RFC 5869, RFC 8439,
// RFC 7748, RFC 8032), plus property tests for round-trips and tampering.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "drum/crypto/api.hpp"
#include "drum/crypto/chacha20.hpp"
#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/ed25519_internal.hpp"
#include "drum/crypto/fe25519.hpp"
#include "drum/crypto/hmac.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/crypto/portbox.hpp"
#include "drum/crypto/sha256.hpp"
#include "drum/crypto/sha512.hpp"
#include "drum/crypto/x25519.hpp"
#include "drum/util/rng.hpp"

namespace drum::crypto {
namespace {

using util::ByteSpan;
using util::Bytes;
using util::from_hex;
using util::to_hex;

ByteSpan span_of(const std::string& s) {
  return ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

template <std::size_t N>
std::array<std::uint8_t, N> arr_from_hex(const std::string& hex) {
  auto b = from_hex(hex);
  EXPECT_TRUE(b.has_value());
  EXPECT_EQ(b->size(), N);
  std::array<std::uint8_t, N> out{};
  std::copy(b->begin(), b->end(), out.begin());
  return out;
}

// ------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(to_hex(ByteSpan(sha256(span_of("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(ByteSpan(sha256(span_of("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      to_hex(ByteSpan(sha256(span_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string a(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(span_of(a));
  EXPECT_EQ(to_hex(ByteSpan(h.final())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShot) {
  util::Rng rng(1);
  Bytes data(1337);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  auto one_shot = sha256(ByteSpan(data));
  Sha256 h;
  // Update in awkward chunk sizes straddling block boundaries.
  std::size_t pos = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 100u, 500u, 544u}) {
    h.update(ByteSpan(data.data() + pos, chunk));
    pos += chunk;
  }
  ASSERT_EQ(pos, data.size());
  EXPECT_EQ(h.final(), one_shot);
}

// ------------------------------------------------------------- SHA-512

TEST(Sha512, Fips180Vectors) {
  EXPECT_EQ(to_hex(ByteSpan(sha512(span_of("abc")))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(to_hex(ByteSpan(sha512(span_of("")))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(to_hex(ByteSpan(sha512(span_of(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")))),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

// ---------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(ByteSpan(hmac_sha256(ByteSpan(key), span_of("Hi There")))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(ByteSpan(hmac_sha256(
                span_of("Jefe"), span_of("what do ya want for nothing?")))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(ByteSpan(hmac_sha256(ByteSpan(key), ByteSpan(data)))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231LongKey) {
  Bytes key(131, 0xaa);  // key longer than block size
  EXPECT_EQ(
      to_hex(ByteSpan(hmac_sha256(
          ByteSpan(key),
          span_of("Test Using Larger Than Block-Size Key - Hash Key First")))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  auto salt = *from_hex("000102030405060708090a0b0c");
  auto info = *from_hex("f0f1f2f3f4f5f6f7f8f9");
  std::string info_str(info.begin(), info.end());
  auto okm = hkdf_sha256(ByteSpan(ikm), ByteSpan(salt), info_str, 42);
  EXPECT_EQ(to_hex(ByteSpan(okm)),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, 0x0b);
  auto okm = hkdf_sha256(ByteSpan(ikm), ByteSpan(), "", 42);
  EXPECT_EQ(to_hex(ByteSpan(okm)),
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// ------------------------------------------------------------ ChaCha20

TEST(ChaCha20, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2. XORed into zeros, the keystream is the block itself.
  auto key = *from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = *from_hex("000000090000004a00000000");
  Bytes zeros(64, 0);
  auto block =
      chacha20_xor_copy(ByteSpan(key), ByteSpan(nonce), 1, ByteSpan(zeros));
  EXPECT_EQ(to_hex(ByteSpan(block)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 §2.4.2: 114 bytes, one whole block and a partial one.
  auto key = *from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = *from_hex("000000000000004a00000000");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  const std::string want =
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d";
  auto ct = chacha20_xor_copy(ByteSpan(key), ByteSpan(nonce), 1, span_of(pt));
  EXPECT_EQ(to_hex(ByteSpan(ct)), want);
  // Every length from 0 to the whole message encrypts to the matching
  // prefix of the vector: partial blocks take the keystream's first bytes.
  for (std::size_t len = 0; len <= pt.size(); ++len) {
    auto prefix = chacha20_xor_copy(ByteSpan(key), ByteSpan(nonce), 1,
                                    span_of(pt).first(len));
    EXPECT_EQ(to_hex(ByteSpan(prefix)), want.substr(0, 2 * len))
        << "len=" << len;
  }
  // The counter advances once per block: the second block on its own is
  // the vector's tail under counter 2.
  auto tail = chacha20_xor_copy(ByteSpan(key), ByteSpan(nonce), 2,
                                span_of(pt).subspan(64));
  EXPECT_EQ(to_hex(ByteSpan(tail)), want.substr(128));
}

TEST(ChaCha20, DecryptInverts) {
  util::Rng rng(2);
  Bytes key(32), nonce(12), msg(777);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.below(256));
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  auto ct = chacha20_xor_copy(ByteSpan(key), ByteSpan(nonce), 7, ByteSpan(msg));
  EXPECT_NE(ct, msg);
  EXPECT_EQ(chacha20_xor_copy(ByteSpan(key), ByteSpan(nonce), 7, ByteSpan(ct)),
            msg);
}

TEST(ChaCha20, RejectsBadKeyOrNonceSize) {
  Bytes key(31), nonce(12), data(5);
  EXPECT_THROW(
      chacha20_xor_copy(ByteSpan(key), ByteSpan(nonce), 0, ByteSpan(data)),
      std::invalid_argument);
  // Checked even when there is nothing to encrypt.
  Bytes key2(32), nonce2(11);
  EXPECT_THROW(chacha20_xor(ByteSpan(key2), ByteSpan(nonce2), 0, nullptr, 0),
               std::invalid_argument);
}

// -------------------------------------------------------------- X25519

TEST(X25519, Rfc7748Vector1) {
  auto scalar = arr_from_hex<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = arr_from_hex<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  auto out = x25519(scalar, point);
  EXPECT_EQ(to_hex(ByteSpan(out)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  auto scalar = arr_from_hex<32>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point = arr_from_hex<32>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  auto out = x25519(scalar, point);
  EXPECT_EQ(to_hex(ByteSpan(out)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  auto alice_priv = arr_from_hex<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto bob_priv = arr_from_hex<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  auto alice_pub = x25519_base(alice_priv);
  auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(to_hex(ByteSpan(alice_pub)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(ByteSpan(bob_pub)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  auto k1 = x25519(alice_priv, bob_pub);
  auto k2 = x25519(bob_priv, alice_pub);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(to_hex(ByteSpan(k1)),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

// ------------------------------------------------------------- Ed25519

// The group order L = 2^252 + 27742317777372353535851937790883648493, as
// 32 little-endian bytes.
constexpr const char* kOrderLeHex =
    "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

struct Rfc8032Case {
  std::string name, seed, pub, msg, sig;
};

// Names each case after its RFC 8032 §7.1 test. Without this gtest would
// name it by dumping the object's bytes, which hold the strings' heap
// pointers and so differ from run to run.
void PrintTo(const Rfc8032Case& c, std::ostream* os) { *os << c.name; }

class Ed25519Rfc : public ::testing::TestWithParam<Rfc8032Case> {};

TEST_P(Ed25519Rfc, SignAndVerify) {
  const auto& c = GetParam();
  auto seed = arr_from_hex<32>(c.seed);
  auto expect_pub = arr_from_hex<32>(c.pub);
  auto msg = *from_hex(c.msg);
  auto expect_sig = arr_from_hex<64>(c.sig);

  auto pub = ed25519_public_key(seed);
  EXPECT_EQ(pub, expect_pub);
  auto sig = ed25519_sign(seed, pub, ByteSpan(msg));
  EXPECT_EQ(sig, expect_sig);
  EXPECT_TRUE(ed25519_verify(pub, ByteSpan(msg), sig));
}

INSTANTIATE_TEST_SUITE_P(
    Rfc8032Section7, Ed25519Rfc,
    ::testing::Values(
        Rfc8032Case{
            "Test1",
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
        Rfc8032Case{
            "Test2",
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
        Rfc8032Case{
            "Test3",
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"}));

TEST(Ed25519, RejectsTamperedMessage) {
  util::Rng rng(3);
  Ed25519Seed seed;
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.below(256));
  auto pub = ed25519_public_key(seed);
  std::string msg = "multicast message payload";
  auto sig = ed25519_sign(seed, pub, span_of(msg));
  EXPECT_TRUE(ed25519_verify(pub, span_of(msg), sig));
  std::string tampered = "multicast message payloae";
  EXPECT_FALSE(ed25519_verify(pub, span_of(tampered), sig));
}

TEST(Ed25519, RejectsTamperedSignatureAndWrongKey) {
  util::Rng rng(4);
  Ed25519Seed seed, seed2;
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.below(256));
  for (auto& b : seed2) b = static_cast<std::uint8_t>(rng.below(256));
  auto pub = ed25519_public_key(seed);
  auto pub2 = ed25519_public_key(seed2);
  std::string msg = "hello";
  auto sig = ed25519_sign(seed, pub, span_of(msg));
  auto bad = sig;
  bad[10] ^= 1;
  EXPECT_FALSE(ed25519_verify(pub, span_of(msg), bad));
  EXPECT_FALSE(ed25519_verify(pub2, span_of(msg), sig));
}

TEST(Ed25519, RejectsNonCanonicalS) {
  util::Rng rng(5);
  Ed25519Seed seed;
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.below(256));
  auto pub = ed25519_public_key(seed);
  std::string msg = "x";
  auto sig = ed25519_sign(seed, pub, span_of(msg));
  // Add L to S byte by byte: the same value mod L, but a non-canonical
  // encoding, which must be rejected. S < L < 2^253, so S + L fits.
  const auto order = arr_from_hex<32>(kOrderLeHex);
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    carry += sig[32 + i] + order[i];
    sig[32 + i] = static_cast<std::uint8_t>(carry);
    carry >>= 8;
  }
  EXPECT_FALSE(ed25519_verify(pub, span_of(msg), sig));
}

// 32 bytes: `first`, then 30 copies of `fill`, then `last`.
std::array<std::uint8_t, 32> enc32(std::uint8_t first, std::uint8_t fill,
                                   std::uint8_t last) {
  std::array<std::uint8_t, 32> out;
  out.fill(fill);
  out.front() = first;
  out.back() = last;
  return out;
}

// Verdicts on a grid of hostile inputs, pinned so that a change to the
// verification equation cannot silently change what is accepted. A and R
// each take one of seven encodings, S one of five edge values, and the
// message one of four bytes: 7·7·5·4 = 980 cases, plus four valid
// signatures. The table records what verification does today (cofactorless,
// with no small-order check); it does not endorse those verdicts.
TEST(Ed25519, HostileInputVerdictsArePinned) {
  struct Named {
    const char* name;
    std::array<std::uint8_t, 32> bytes;  // little-endian encoding
  };
  const Named points[] = {
      {"id", enc32(0x01, 0x00, 0x00)},     // the identity (0, 1)
      {"y=-1", enc32(0xec, 0xff, 0x7f)},   // (0, -1), order 2
      {"y=0", enc32(0x00, 0x00, 0x00)},    // (sqrt(-1), 0), order 4
      {"y=2", enc32(0x02, 0x00, 0x00)},
      {"y=p", enc32(0xed, 0xff, 0x7f)},    // y = 0, non-canonical
      {"y=p+1", enc32(0xee, 0xff, 0x7f)},  // y = 1, non-canonical
      {"-0", enc32(0x01, 0x00, 0x80)},     // the identity with x "negative"
  };
  const Named scalars[] = {
      {"0", enc32(0x00, 0x00, 0x00)},
      {"1", enc32(0x01, 0x00, 0x00)},
      {"L-1", arr_from_hex<32>("ecd3f55c1a631258d69cf7a2def9de14"
                               "00000000000000000000000000000010")},
      {"L", arr_from_hex<32>(kOrderLeHex)},
      {"2^256-1", enc32(0xff, 0xff, 0xff)},
  };
  const std::uint8_t messages[4] = {0x00, 0x01, 0x02, 0x03};
  // Every case ed25519_verify accepts, as "A R S message": the four valid
  // signatures, and 9 hostile cases with S = 0 in which R + k·A is the
  // identity. No case with a y >= p encoding is accepted (RFC 8032 §5.1.3).
  const std::vector<std::string> want_accepted = {
      "id id 0 00",      "id id 0 01",      "id id 0 02",
      "id id 0 03",      "y=-1 id 0 01",    "y=-1 id 0 02",
      "y=-1 y=-1 0 00",  "y=-1 y=-1 0 02",  "y=0 y=-1 0 03",
      "valid 00",        "valid 01",        "valid 02",
      "valid 03",
  };

  std::vector<std::string> names;
  std::vector<VerifyJob> jobs;
  for (const Named& a : points) {
    for (const Named& r : points) {
      for (const Named& s : scalars) {
        for (const std::uint8_t& m : messages) {
          VerifyJob job{a.bytes, ByteSpan(&m, 1), {}};
          std::copy(r.bytes.begin(), r.bytes.end(), job.sig.begin());
          std::copy(s.bytes.begin(), s.bytes.end(), job.sig.begin() + 32);
          jobs.push_back(job);
          names.push_back(std::string(a.name) + " " + r.name + " " + s.name +
                          " " + to_hex(ByteSpan(&m, 1)));
        }
      }
    }
  }
  util::Rng rng(16);
  for (const std::uint8_t& m : messages) {
    Ed25519Seed seed;
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.below(256));
    const auto pub = ed25519_public_key(seed);
    jobs.push_back({pub, ByteSpan(&m, 1), ed25519_sign(seed, pub, {&m, 1})});
    names.push_back("valid " + to_hex(ByteSpan(&m, 1)));
  }
  ASSERT_EQ(jobs.size(), 984u);

  std::vector<bool> single;
  std::vector<std::string> accepted;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    single.push_back(ed25519_verify(jobs[i].pub, jobs[i].message, jobs[i].sig));
    if (single.back()) accepted.push_back(names[i]);
  }
  EXPECT_EQ(accepted, want_accepted);

  // One batch over every case must reach the same verdicts.
  const auto batch = ed25519_verify_batch(jobs);
  ASSERT_EQ(batch.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(batch[i], single[i]) << names[i];
  }
}

// ------------------------------------------------------- scalars mod L
//
// Expected values were computed with Python integers and are written as
// big-endian hex numbers, the way Python's hex() prints them.

// A big-endian hex number as N little-endian bytes.
template <std::size_t N>
std::array<std::uint8_t, N> le_of(const std::string& hex) {
  auto out = arr_from_hex<N>(std::string(2 * N - hex.size(), '0') + hex);
  std::reverse(out.begin(), out.end());
  return out;
}

TEST(ScalarModL, ReduceMatchesReference) {
  struct Case {
    const char* x;
    const char* want;  // x mod L
  };
  const Case cases[] = {
      // 0
      {"0",
       "0"},
      // 1
      {"1",
       "1"},
      // L - 1
      {"1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec",
       "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec"},
      // L
      {"1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed",
       "0"},
      // L + 1
      {"1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ee",
       "1"},
      // 2L
      {"2000000000000000000000000000000029bdf3bd45ef39acb024c634b9eba7da",
       "0"},
      // 2^252
      {"1000000000000000000000000000000000000000000000000000000000000000",
       "1000000000000000000000000000000000000000000000000000000000000000"},
      // 2^256
      {"1"
       "0000000000000000000000000000000000000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffec6ef5bf4737dcf70d6ec31748d98951d"},
      // 2^512 - 1
      {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
       "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
       "399411b7c309a3dceec73d217f5be65d00e1ba768859347a40611e3449c0f00"},
      // k·L + r
      {"1e3d6e4b9d96e182dcd502d42af1ffe105ffb06e45f30f984dc84c6f2fde67a8"
       "4d17dda3b07daff2fb5c0ba3ce38acd524d5b8833302c546f5dd684bab9760db",
       "96dd402bea4256e36c2a4c7d885bbac88043e5f1221b5a22155a41c2ff7c0fc"},
      // k·L + L - 1, largest k
      {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
       "fc66bee483cf65c231138c2de80a419a2ff1e458977a6cb85bf9ee1cbb63f0fe",
       "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec"},
      // random
      {"cf4b1858cb4ac8b4df0c841f15bf54df258ececbd59a0625469d3e78fe339eca"
       "03b1d74bff7d5ec09bc03e20af2529cad670a8382054fa816e7c0c6a07ac5fed",
       "675dab4def90fd5c88ced335089c39e119b1175dbad275fabe049008c6f6dba"},
      // random
      {"7c9df9403be93fb8d9959a625b1196f741b79d35e08409f0cb348bfb23b6bd8f"
       "f306dc016fcfd73dbea7f23973790dfbd38cadcd432ff218ce5915e6e36b0753",
       "51d8be79b8c0fcce0b67e3efe3b7c9b7522e0605e3f09151234504312543fe1"},
      // random
      {"d1d42a63589218431e0b4ee5a7be99ae5052aa32a37e37286e08d514e37d3739"
       "5d3c6201abb4da1c6df8ccf6fb3e7196906b630c8cb950a5c147eea8e5f31bed",
       "253db7f7bf7c03b73fcfd323752975ba923d83b3ecf7420d8c06c742132f837"},
  };
  for (const Case& c : cases) {
    const auto x = le_of<64>(c.x);
    EXPECT_EQ(detail::sc_reduce(x.data()), le_of<32>(c.want)) << c.x;
  }
}

TEST(ScalarModL, MulAddMatchesReference) {
  struct Case {
    const char *a, *b, *c;
    const char* want;  // (a·b + c) mod L
  };
  const Case cases[] = {
      // (L - 1)·(L - 1) + (L - 1)
      {"1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec",
       "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec",
       "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec",
       "0"},
      // (2^255 - 1)·(2^255 - 1) + (2^256 - 1)
      {"7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
       "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
       "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
       "ce65046df0c268f73bb1cf485fd6f9983aac250d45b1a72ab0f4ecc96df62b2"},
      // (2^256 - 1)·(2^256 - 1) + (2^256 - 1), the largest sum
      {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
       "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
       "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
       "399411b7c309a3dceec73d217f5be671dfdb99197ff60ad252c438913f94dd1"},
      // L·L + L
      {"1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed",
       "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed",
       "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ed",
       "0"},
      // 0·0 + 0
      {"0",
       "0",
       "0",
       "0"},
      // 1·1 + 0
      {"1",
       "1",
       "0",
       "1"},
      // random
      {"8de1c74372c8dd98b0e04e90434cbf26fc559a25a23fb787cc5aad8f983ca1be",
       "7182a8d0ba9c678aad442d8b70bcb8e32285c6affcb627afbf97e5209c76df52",
       "40d90a1e5b33199985cf3a6b2dedf12233df56d44b1634e12d37de818935b826",
       "baf9b640a16b54ee14a4b5e9fa103f4f1f851ec5c7344a46d27ab27a33798b0"},
      // random
      {"217adc6be3a707d665505ac447b7097b9b01f7cc4302da54759f1b435f013c82",
       "31c8b788e2f99b2a3c556a2590bb34803c4641108cce89147da8d02e93c38b33",
       "f4237526a10bc6cca6b720146e2d704512c2339b218fdc135dcf019db3988b52",
       "95333d1f901789ee91aff7dfa30321b5718be1208206a64e26e37e4b0b4c829"},
      // random
      {"b0fb71cde14bff2eed7a24a6c9fee24b808a677008eef6a63c2a48f76b1fd3d",
       "a399246171f33313d690b21cb2b8af9ace5c42997f7eb68924496fe339935c59",
       "e2dd81ad4053bcf1de451397bc7b3b1669da8a2ebbafd28528e5d0e040f27005",
       "914ff9f0767e60d291799c8cd536b39b617a82b166b5fefce588746300b5287"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(detail::sc_muladd(le_of<32>(c.a), le_of<32>(c.b), le_of<32>(c.c)),
              le_of<32>(c.want))
        << c.a << " " << c.b << " " << c.c;
  }
}

TEST(ScalarModL, CanonicalMeansBelowL) {
  auto canonical = [](const std::string& hex) {
    return detail::sc_is_canonical(le_of<32>(hex).data());
  };
  const std::string l_hi = "10000000000000000000000000000000";
  EXPECT_TRUE(canonical("0"));
  EXPECT_TRUE(canonical(l_hi + std::string(32, '0')));           // 2^252
  EXPECT_TRUE(canonical(l_hi + "14def9dea2f79cd65812631a5cf5d3ec"));   // L - 1
  EXPECT_FALSE(canonical(l_hi + "14def9dea2f79cd65812631a5cf5d3ed"));  // L
  EXPECT_FALSE(canonical(l_hi + "14def9dea2f79cd65812631a5cf5d3ee"));  // L + 1
  EXPECT_FALSE(canonical(std::string(64, 'f')));                 // 2^256 - 1
}

// x = hi·2^256 + lo, so x mod L = (hi·(2^256 mod L) + lo) mod L: a
// randomized cross-check of sc_reduce against sc_muladd.
TEST(ScalarModL, ReduceAgreesWithMulAdd) {
  const auto two_256 = le_of<32>(
      "ffffffffffffffffffffffffffffffec6ef5bf4737dcf70d6ec31748d98951d");
  util::Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    std::array<std::uint8_t, 64> x;
    for (auto& b : x) b = static_cast<std::uint8_t>(rng.below(256));
    detail::Scalar lo, hi;
    std::copy_n(x.begin(), 32, lo.begin());
    std::copy_n(x.begin() + 32, 32, hi.begin());
    EXPECT_EQ(detail::sc_reduce(x.data()), detail::sc_muladd(hi, two_256, lo))
        << to_hex(ByteSpan(x));
  }
}

// Sums of two scalars mod 8L, the merged per-signer scalar of batch
// verification.
TEST(ScalarMod8L, AddMatchesReference) {
  struct Case {
    const char *a, *b;
    const char* want;  // (a + b) mod 8L
  };
  const std::string l8_minus_1 =
      "80000000000000000000000000000000a6f7cef517bce6b2c09318d2e7ae9f67";
  const Case cases[] = {
      // 0 + 0
      {"0", "0", "0"},
      // (8L - 1) + 0
      {l8_minus_1.c_str(), "0", l8_minus_1.c_str()},
      // (8L - 1) + 1 wraps to 0
      {l8_minus_1.c_str(), "1", "0"},
      // (8L - 1) + (8L - 1), the largest sum, carries out of 256 bits
      {l8_minus_1.c_str(), l8_minus_1.c_str(),
       "80000000000000000000000000000000a6f7cef517bce6b2c09318d2e7ae9f66"},
      // (L - 1) + (L - 1) stays below 8L
      {"1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec",
       "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec",
       "2000000000000000000000000000000029bdf3bd45ef39acb024c634b9eba7d8"},
      // random, wraps
      {"3bb0b1b2568c43961dfc388c3d5df9725e06e22dfff3f4ecb1dcec40db7aca58",
       "77af3ebd3a862aac5826a9974368903d646c2d6447d433985b11bb37b54c3950",
       "335ff06f91126e427622e22380c689af1b7b409d300b41d24c5b8ea5a9186440"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(detail::sc_add_mod_8l(le_of<32>(c.a), le_of<32>(c.b)),
              le_of<32>(c.want))
        << c.a << " " << c.b;
  }
}

// P = B + T2 has a component of order 2 (T2 = (0, -1)). One MSM entry over
// the sum of two scalars mod 8L is the same point as the two entries; the
// sum mod L is not, because it flips the parity that selects T2. This is
// why batch verification merges a signer's scalars mod 8L.
TEST(ScalarMod8L, MergedEntryEqualsSeparateEntries) {
  detail::Ge t2, p;
  ASSERT_TRUE(detail::ge_frombytes(t2, enc32(0xec, 0xff, 0x7f).data()));
  const detail::Scalar one = le_of<32>("1");
  const detail::MsmEntry b_plus_t2[] = {{one, detail::base_point()},
                                        {one, t2}};
  detail::ge_msm(p, b_plus_t2);

  auto encode = [](std::initializer_list<detail::MsmEntry> terms) {
    detail::Ge sum;
    detail::ge_msm(sum, std::vector<detail::MsmEntry>(terms));
    std::array<std::uint8_t, 32> out;
    detail::ge_tobytes(out.data(), sum);
    return out;
  };
  const detail::Scalar l_minus_1 = le_of<32>(
      "1000000000000000000000000000000014def9dea2f79cd65812631a5cf5d3ec");
  const auto separate = encode({{l_minus_1, p}, {l_minus_1, p}});
  const auto mod_8l =
      encode({{detail::sc_add_mod_8l(l_minus_1, l_minus_1), p}});
  const auto mod_l =
      encode({{detail::sc_muladd(one, l_minus_1, l_minus_1), p}});
  EXPECT_EQ(separate, mod_8l);
  EXPECT_NE(separate, mod_l);
}

// ---------------------------------------------------------- field GF(p)
//
// fe25519.hpp documents the limb bounds each function accepts and returns.
// At the largest limbs it accepts, each function must give the same value
// as on the canonically reduced inputs, and a function that returns reduced
// limbs must return them below 2^52.

constexpr std::uint64_t kLimb52 = std::uint64_t{1} << 52;
constexpr std::uint64_t kLimb53 = std::uint64_t{1} << 53;
constexpr std::uint64_t kLimb54 = std::uint64_t{1} << 54;
// fe_mul_small's factor n is below this.
constexpr std::uint64_t kMulSmallBound = std::uint64_t{1} << 17;

// The canonical encoding of f, as a big-endian hex number.
std::string fe_hex(const Fe& f) {
  std::array<std::uint8_t, 32> s;
  fe_tobytes(s.data(), f);
  std::reverse(s.begin(), s.end());
  return to_hex(ByteSpan(s));
}

Fe fe_of(const std::string& hex) {
  Fe f;
  fe_frombytes(f, le_of<32>(hex).data());
  return f;
}

// fe_frombytes(fe_tobytes(f)): the same value with limbs below 2^51.
Fe canonical(const Fe& f) {
  std::array<std::uint8_t, 32> s;
  fe_tobytes(s.data(), f);
  Fe out;
  fe_frombytes(out, s.data());
  return out;
}

// Elements whose every limb is below `bound`: zero, all limbs at
// bound - 1, and random limbs.
std::vector<Fe> elements_below(std::uint64_t bound, util::Rng& rng) {
  std::vector<Fe> out(2, Fe{});
  for (auto& l : out[1].v) l = bound - 1;
  for (int i = 0; i < 40; ++i) {
    Fe f;
    for (auto& l : f.v) l = rng.next() % bound;
    out.push_back(f);
  }
  return out;
}

void expect_reduced(const Fe& f) {
  for (auto l : f.v) EXPECT_LT(l, kLimb52);
}

TEST(Fe, MulAndSqAtLimbsBelow2To54) {
  util::Rng rng(30);
  const auto elements = elements_below(kLimb54, rng);
  for (const Fe& f : elements) {
    Fe h, want;
    fe_sq(h, f);
    expect_reduced(h);
    fe_mul(want, canonical(f), canonical(f));
    EXPECT_EQ(fe_hex(h), fe_hex(want));
    for (const Fe& g : elements) {
      fe_mul(h, f, g);
      expect_reduced(h);
      fe_mul(want, canonical(f), canonical(g));
      EXPECT_EQ(fe_hex(h), fe_hex(want));
    }
  }
}

TEST(Fe, MulSmallAtLimbsBelow2To54) {
  util::Rng rng(31);
  for (const Fe& f : elements_below(kLimb54, rng)) {
    for (std::uint64_t n : {std::uint64_t{121665}, kMulSmallBound - 1}) {
      Fe h, n_fe, want;
      fe_mul_small(h, f, n);
      expect_reduced(h);
      fe_zero(n_fe);
      n_fe.v[0] = n;
      fe_mul(want, canonical(f), n_fe);
      EXPECT_EQ(fe_hex(h), fe_hex(want)) << n;
    }
  }
}

TEST(Fe, AddSubAndNegAtLimbsBelow2To53) {
  util::Rng rng(32);
  const auto elements = elements_below(kLimb53, rng);
  const std::string zero(64, '0');
  for (const Fe& f : elements) {
    Fe h, want;
    fe_neg(h, f);
    expect_reduced(h);
    fe_add(want, h, canonical(f));
    EXPECT_EQ(fe_hex(want), zero);
    for (const Fe& g : elements) {
      fe_add(h, f, g);
      for (auto l : h.v) EXPECT_LT(l, kLimb54);
      fe_add(want, canonical(f), canonical(g));
      EXPECT_EQ(fe_hex(h), fe_hex(want));
      fe_sub(h, f, g);
      expect_reduced(h);
      fe_sub(want, canonical(f), canonical(g));
      EXPECT_EQ(fe_hex(h), fe_hex(want));
    }
  }
}

// Expected values were computed with Python integers mod p = 2^255 - 19.
TEST(Fe, MatchesReference) {
  const Fe a = fe_of(
      "74dda335287385820942dc06bc69f2658575062102fbcd4f357fbc5af71a1bfc");
  const Fe b = fe_of(
      "12d908b5ae6cff55ce0c3f08e12656f10e11160004524a7c3d2bd371fc80be13");
  const Fe p_minus_1 = fe_of(
      "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec");
  const Fe top = fe_of(std::string(64, 'f'));  // 2^255 - 1 = p + 18
  Fe h;
  fe_mul(h, a, b);
  EXPECT_EQ(fe_hex(h),
            "0f2f5fd36167d0df6130840c052d16a04b69eaea33bf48b0d978660629743423");
  fe_sq(h, a);
  EXPECT_EQ(fe_hex(h),
            "157a444da86c1d310de21bdcc7a7bba001ca46f418cfe6a9f697283a2ad7e98b");
  fe_add(h, a, b);
  EXPECT_EQ(fe_hex(h),
            "07b6abead6e084d7d74f1b0f9d90495693861c21074e17cb72ab8fccf39ada22");
  fe_sub(h, a, b);
  EXPECT_EQ(fe_hex(h),
            "62049a7f7a06862c3b369cfddb439b747763f020fea982d2f853e8e8fa995de9");
  fe_sub(h, b, a);
  EXPECT_EQ(fe_hex(h),
            "1dfb658085f979d3c4c9630224bc648b889c0fdf01567d2d07ac17170566a204");
  fe_mul_small(h, a, 121665);
  EXPECT_EQ(fe_hex(h),
            "6a1a128d9e0d2d33683a5d4e6ba8ea670515ceeaf7e1196097eb9b962fade347");
  fe_sq(h, p_minus_1);  // (-1)^2
  EXPECT_EQ(fe_hex(h), std::string(63, '0') + "1");
  fe_add(h, p_minus_1, p_minus_1);
  EXPECT_EQ(fe_hex(h),
            "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffeb");
  EXPECT_EQ(fe_hex(top), std::string(62, '0') + "12");
  fe_sq(h, top);  // 18^2
  EXPECT_EQ(fe_hex(h), std::string(61, '0') + "144");
  fe_sub(h, top, p_minus_1);  // 18 - (-1)
  EXPECT_EQ(fe_hex(h), std::string(62, '0') + "13");
}

// ------------------------------------------------------------- portbox

TEST(PortBox, SealOpenRoundTrip) {
  util::Rng rng(8);
  Bytes key(32, 0x42);
  std::string msg = "port 40123";
  auto box = portbox_seal(ByteSpan(key), span_of(msg), rng);
  EXPECT_EQ(box.size(), msg.size() + kPortBoxOverhead);
  auto opened = portbox_open(ByteSpan(key), ByteSpan(box));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(std::string(opened->begin(), opened->end()), msg);
}

TEST(PortBox, TamperDetected) {
  util::Rng rng(9);
  Bytes key(32, 0x01);
  std::string msg = "secret";
  auto box = portbox_seal(ByteSpan(key), span_of(msg), rng);
  for (std::size_t i = 0; i < box.size(); ++i) {
    auto bad = box;
    bad[i] ^= 0x80;
    EXPECT_EQ(portbox_open(ByteSpan(key), ByteSpan(bad)), std::nullopt)
        << "tamper at byte " << i << " not detected";
  }
}

TEST(PortBox, WrongKeyRejectedAndShortBoxRejected) {
  util::Rng rng(10);
  Bytes key(32, 0x01), key2(32, 0x02);
  auto box = portbox_seal(ByteSpan(key), span_of("data"), rng);
  EXPECT_EQ(portbox_open(ByteSpan(key2), ByteSpan(box)), std::nullopt);
  Bytes tiny(kPortBoxOverhead - 1, 0);
  EXPECT_EQ(portbox_open(ByteSpan(key), ByteSpan(tiny)), std::nullopt);
}

TEST(PortBox, PortConvenience) {
  util::Rng rng(11);
  Bytes key(32, 0x07);
  auto box = portbox_seal_port(ByteSpan(key), 54321, rng);
  auto port = portbox_open_port(ByteSpan(key), ByteSpan(box));
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, 54321);
  // A non-port box (wrong size plaintext) is rejected by the port opener.
  auto box2 = portbox_seal(ByteSpan(key), span_of("xyz"), rng);
  EXPECT_EQ(portbox_open_port(ByteSpan(key), ByteSpan(box2)), std::nullopt);
}

TEST(PortBox, NoncesDiffer) {
  util::Rng rng(12);
  Bytes key(32, 0x03);
  auto b1 = portbox_seal_port(ByteSpan(key), 1234, rng);
  auto b2 = portbox_seal_port(ByteSpan(key), 1234, rng);
  EXPECT_NE(b1, b2);  // fresh nonce each seal
}

// ---------------------------------------------------------------- keys

TEST(Identity, PairKeySymmetry) {
  util::Rng rng(13);
  auto a = Identity::generate(rng);
  auto b = Identity::generate(rng);
  auto kab = a.derive_pair_key(b.dh_public());
  auto kba = b.derive_pair_key(a.dh_public());
  EXPECT_EQ(kab, kba);
  EXPECT_EQ(kab.size(), 32u);

  auto c = Identity::generate(rng);
  EXPECT_NE(a.derive_pair_key(c.dh_public()), kab);
}

TEST(Identity, SignVerify) {
  util::Rng rng(14);
  auto id = Identity::generate(rng);
  std::string msg = "signed multicast payload";
  auto sig = id.sign(span_of(msg));
  EXPECT_TRUE(ed25519_verify(id.sign_public(), span_of(msg), sig));
  auto other = Identity::generate(rng);
  EXPECT_FALSE(ed25519_verify(other.sign_public(), span_of(msg), sig));
  EXPECT_EQ(id.short_id().size(), 16u);
}

TEST(Identity, PortBoxBetweenIdentities) {
  // End-to-end: the exact flow Drum uses to hide its random ports.
  util::Rng rng(15);
  auto alice = Identity::generate(rng);
  auto bob = Identity::generate(rng);
  auto key = alice.derive_pair_key(bob.dh_public());
  auto box = portbox_seal_port(ByteSpan(key), 49152, rng);
  auto bob_key = bob.derive_pair_key(alice.dh_public());
  auto port = portbox_open_port(ByteSpan(bob_key), ByteSpan(box));
  ASSERT_TRUE(port.has_value());
  EXPECT_EQ(*port, 49152);
  // Eve (without the pair key) cannot open it.
  auto eve = Identity::generate(rng);
  auto eve_key = eve.derive_pair_key(bob.dh_public());
  EXPECT_EQ(portbox_open_port(ByteSpan(eve_key), ByteSpan(box)), std::nullopt);
}

}  // namespace
}  // namespace drum::crypto

namespace drum::crypto {
namespace {

TEST(X25519, Rfc7748IteratedVector1000) {
  // RFC 7748 §5.2: start with k = u = base point scalar; iterate
  // k' = X25519(k, u), u' = old k. After 1000 iterations the result is the
  // published constant.
  auto k = arr_from_hex<32>(
      "0900000000000000000000000000000000000000000000000000000000000000");
  auto u = k;
  for (int i = 0; i < 1000; ++i) {
    auto next = x25519(k, u);
    u = k;
    k = next;
  }
  EXPECT_EQ(util::to_hex(util::ByteSpan(k)),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// Parameterized round-trip sweep: the port box must be inverse-correct for
// plaintexts straddling cipher-block and MAC boundaries.
class PortBoxSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PortBoxSizes, SealOpenRoundTrip) {
  util::Rng rng(GetParam() + 1000);
  util::Bytes key(32);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
  util::Bytes msg(GetParam());
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  auto box = portbox_seal(util::ByteSpan(key), util::ByteSpan(msg), rng);
  auto opened = portbox_open(util::ByteSpan(key), util::ByteSpan(box));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PortBoxSizes,
                         ::testing::Values(0, 1, 2, 15, 16, 17, 63, 64, 65,
                                           127, 128, 1024));

// Parameterized SHA-256 length sweep against a self-consistency property:
// streaming in two chunks at every split point equals one-shot.
class ShaSplit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShaSplit, StreamingSplitConsistency) {
  util::Rng rng(7);
  util::Bytes data(130);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  auto expected = sha256(util::ByteSpan(data));
  std::size_t split = GetParam();
  Sha256 h;
  h.update(util::ByteSpan(data.data(), split));
  h.update(util::ByteSpan(data.data() + split, data.size() - split));
  EXPECT_EQ(h.final(), expected);
}

INSTANTIATE_TEST_SUITE_P(Splits, ShaSplit,
                         ::testing::Values(0, 1, 55, 56, 63, 64, 65, 119,
                                           128, 130));

}  // namespace
}  // namespace drum::crypto
