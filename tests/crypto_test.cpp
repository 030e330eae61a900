// Crypto substrate tests: every primitive is checked against its published
// specification test vectors (FIPS 180-4, RFC 4231, RFC 5869, RFC 8439,
// RFC 7748, RFC 8032), plus property tests for round-trips and tampering.
#include <gtest/gtest.h>

#include "drum/crypto/api.hpp"
#include "drum/crypto/bigint.hpp"
#include "drum/crypto/chacha20.hpp"
#include "drum/crypto/ed25519.hpp"
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
  EXPECT_EQ(to_hex(ByteSpan(hmac_sha512(ByteSpan(key), span_of("Hi There")))),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde"
            "daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854");
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
  auto key = *from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = *from_hex("000000090000004a00000000");
  auto block = ChaCha20::block(ByteSpan(key), ByteSpan(nonce), 1);
  EXPECT_EQ(to_hex(ByteSpan(block)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  auto key = *from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = *from_hex("000000000000004a00000000");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  ChaCha20 c(ByteSpan(key), ByteSpan(nonce), 1);
  auto ct = c.crypt_copy(span_of(pt));
  EXPECT_EQ(to_hex(ByteSpan(ct)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, DecryptInverts) {
  util::Rng rng(2);
  Bytes key(32), nonce(12), msg(777);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.below(256));
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  ChaCha20 enc(ByteSpan(key), ByteSpan(nonce), 7);
  auto ct = enc.crypt_copy(ByteSpan(msg));
  EXPECT_NE(ct, msg);
  ChaCha20 dec(ByteSpan(key), ByteSpan(nonce), 7);
  EXPECT_EQ(dec.crypt_copy(ByteSpan(ct)), msg);
}

TEST(ChaCha20, RejectsBadKeyOrNonceSize) {
  Bytes key(31), nonce(12);
  EXPECT_THROW(ChaCha20(ByteSpan(key), ByteSpan(nonce)), std::invalid_argument);
  Bytes key2(32), nonce2(11);
  EXPECT_THROW(ChaCha20(ByteSpan(key2), ByteSpan(nonce2)),
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
  // Add L to S: same value mod L but non-canonical encoding — must reject.
  BigInt s = BigInt::from_bytes_le(ByteSpan(sig.data() + 32, 32));
  BigInt s_plus_l = s + ed25519_order();
  if (s_plus_l.bit_length() <= 256) {
    auto le = s_plus_l.to_bytes_le(32);
    std::copy(le.begin(), le.end(), sig.begin() + 32);
    EXPECT_FALSE(ed25519_verify(pub, span_of(msg), sig));
  }
}

// -------------------------------------------------------------- BigInt

TEST(BigInt, HexRoundTripAndCompare) {
  auto a = BigInt::from_hex("deadbeefcafebabe0123456789");
  EXPECT_EQ(a.to_hex(), "deadbeefcafebabe0123456789");
  EXPECT_EQ(BigInt().to_hex(), "0");
  EXPECT_TRUE(BigInt(5) < BigInt(6));
  EXPECT_TRUE(BigInt::from_hex("100000000") > BigInt::from_hex("ffffffff"));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigInt, Arithmetic) {
  auto a = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  auto one = BigInt(1);
  EXPECT_EQ((a + one).to_hex(), "100000000000000000000000000000000");
  EXPECT_EQ((a + one - one).to_hex(), a.to_hex());
  EXPECT_EQ((BigInt(0xffffffffULL) * BigInt(0xffffffffULL)).to_hex(),
            "fffffffe00000001");
  EXPECT_EQ((BigInt(1) << 255).bit_length(), 256u);
  EXPECT_THROW(BigInt(3) - BigInt(5), std::underflow_error);
  EXPECT_THROW(BigInt(3) % BigInt(0), std::domain_error);
}

TEST(BigInt, ModMatchesUint64) {
  util::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    std::uint64_t a = rng.next() >> 1;
    std::uint64_t m = (rng.next() >> 40) + 1;
    EXPECT_EQ(BigInt(a) % BigInt(m), BigInt(a % m));
  }
}

TEST(BigInt, ModularMultiplyProperty) {
  util::Rng rng(7);
  const BigInt& l = ed25519_order();
  for (int i = 0; i < 20; ++i) {
    Bytes ab(64), bb(64);
    for (auto& b : ab) b = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : bb) b = static_cast<std::uint8_t>(rng.below(256));
    BigInt a = BigInt::from_bytes_le(ByteSpan(ab));
    BigInt b = BigInt::from_bytes_le(ByteSpan(bb));
    EXPECT_EQ((a * b) % l, ((a % l) * (b % l)) % l);
  }
}

TEST(BigInt, ByteRoundTrip) {
  Bytes le = {0x01, 0x02, 0x03, 0x00};
  auto v = BigInt::from_bytes_le(ByteSpan(le));
  EXPECT_EQ(v.to_hex(), "30201");
  auto back = v.to_bytes_le(4);
  EXPECT_EQ(back, le);
  EXPECT_THROW(v.to_bytes_le(2), std::overflow_error);
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

TEST(Hmac, BatchMatchesScalar) {
  // Mixed key lengths (including > block size, which must be pre-hashed) and
  // mixed data lengths, incl. empty data. Every lane must equal the scalar
  // one-shot HMAC.
  std::vector<Bytes> keys = {
      Bytes(20, 0x0b), Bytes(0), Bytes(64, 0xaa), Bytes(131, 0xaa),
      Bytes(32, 0x42), Bytes(1, 0x7f), Bytes(200, 0x55), Bytes(63, 0x01),
      Bytes(65, 0x02),  // nine lanes: exercises a ragged final SIMD group
  };
  std::vector<Bytes> datas;
  util::Rng rng(77);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Bytes d(i * 37 % 150, 0);
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.below(256));
    datas.push_back(std::move(d));
  }
  std::vector<ByteSpan> key_spans, data_spans;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    key_spans.emplace_back(keys[i].data(), keys[i].size());
    data_spans.emplace_back(datas[i].data(), datas[i].size());
  }
  auto batch = hmac_sha256_batch(key_spans, data_spans);
  ASSERT_EQ(batch.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto scalar = hmac_sha256(key_spans[i], data_spans[i]);
    EXPECT_EQ(to_hex(ByteSpan(batch[i])), to_hex(ByteSpan(scalar)))
        << "lane " << i;
  }
  EXPECT_TRUE(hmac_sha256_batch({}, {}).empty());
  EXPECT_THROW(hmac_sha256_batch(key_spans,
                                 std::span<const ByteSpan>(
                                     data_spans.data(), data_spans.size() - 1)),
               std::invalid_argument);
}

TEST(PortBox, OpenPortBatchMatchesSingle) {
  util::Rng rng(21);
  std::vector<Bytes> keys;
  std::vector<Bytes> boxes;
  for (int i = 0; i < 10; ++i) {
    keys.push_back(Bytes(32, static_cast<std::uint8_t>(i + 1)));
    boxes.push_back(portbox_seal_port(ByteSpan(keys.back()),
                                      static_cast<std::uint16_t>(40000 + i),
                                      rng));
  }
  // Corrupt lanes at several batch positions, one truncated lane, and one
  // non-port plaintext lane.
  boxes[0][kPortBoxNonceSize] ^= 0x80;               // ciphertext flip, first
  boxes[4].back() ^= 0x01;                           // tag flip, middle
  boxes[9][2] ^= 0xff;                               // nonce flip, last
  boxes[5].resize(kPortBoxOverhead - 1);             // malformed (short)
  boxes[7] = portbox_seal(ByteSpan(keys[7]), span_of("xyz"), rng);

  std::vector<PortBoxOpenJob> jobs;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    jobs.push_back({ByteSpan(keys[i]), ByteSpan(boxes[i])});
  }
  auto batch = portbox_open_port_batch(jobs);
  ASSERT_EQ(batch.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(batch[i], portbox_open_port(jobs[i].key, jobs[i].box))
        << "lane " << i;
  }
  // Sanity: the untouched lanes did open to their sealed ports.
  EXPECT_EQ(batch[1], std::uint16_t{40001});
  EXPECT_EQ(batch[8], std::uint16_t{40008});
  EXPECT_EQ(batch[5], std::nullopt);
  EXPECT_TRUE(portbox_open_port_batch({}).empty());
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
