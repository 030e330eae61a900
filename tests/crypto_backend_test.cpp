// Backend-dispatch tests for drum::crypto: the published known-answer
// vectors (FIPS 180-4, RFC 8032) replayed against every compiled backend,
// randomized scalar-vs-native equivalence over odd lengths and block
// boundaries, batch Ed25519 negative tests (a corrupted signature at
// any batch position is detected and attributed to exactly that index, and
// malformed encodings are rejected exactly as single verification does),
// each with one key per signature, one key for all and two keys
// interleaved.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "drum/crypto/api.hpp"
#include "drum/crypto/backend.hpp"
#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/sha256.hpp"
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

Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

// Restores whatever backend was active when the test started.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend().name) {}
  ~BackendGuard() { set_active_backend(saved_); }

 private:
  std::string saved_;
};

// --------------------------------------------------------------- dispatch

TEST(BackendDispatch, TableIsSaneAndSelectable) {
  BackendGuard guard;
  auto backends = all_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_STREQ(backends.front()->name, "scalar");
  for (const Backend* be : backends) {
    ASSERT_NE(be, nullptr);
    EXPECT_NE(be->sha256_compress, nullptr);
    EXPECT_TRUE(set_active_backend(be->name));
    EXPECT_STREQ(active_backend().name, be->name);
  }
  EXPECT_FALSE(set_active_backend("sse9000"));
  EXPECT_FALSE(set_active_backend(""));
}

TEST(BackendDispatch, NativeAccelerationMatchesCpuFeatures) {
  const CpuFeatures& f = cpu_features();
  // The native table accelerates something iff the build compiled the
  // SHA-NI path and the CPU can run it. On plain-scalar builds both sides
  // are false.
  bool cpu_could = f.sha_ni && f.ssse3 && f.sse41;
  if (!cpu_could) {
    EXPECT_FALSE(native_backend_accelerated());
  }
  if (native_backend_accelerated()) {
    EXPECT_TRUE(cpu_could);
  }
}

// ------------------------------------------- KATs against every backend

TEST(BackendKat, Sha256Fips180EveryBackend) {
  BackendGuard guard;
  for (const Backend* be : all_backends()) {
    ASSERT_TRUE(set_active_backend(be->name));
    SCOPED_TRACE(be->name);
    EXPECT_EQ(
        to_hex(ByteSpan(sha256(span_of("abc")))),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        to_hex(ByteSpan(sha256(span_of("")))),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        to_hex(ByteSpan(sha256(span_of(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    // One long input so multi-block compress loops actually run.
    Sha256 h;
    std::string a(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(span_of(a));
    EXPECT_EQ(
        to_hex(ByteSpan(h.final())),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(BackendKat, Ed25519Rfc8032EveryBackend) {
  BackendGuard guard;
  struct Vector {
    const char* seed;
    const char* pub;
    const char* msg;
    const char* sig;
  };
  // RFC 8032 §7.1 TEST 1–3.
  const Vector vectors[] = {
      {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
       "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
       "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
       "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
      {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
       "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
       "72",
       "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
       "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
      {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
       "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
       "af82",
       "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
       "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"}};
  for (const Backend* be : all_backends()) {
    ASSERT_TRUE(set_active_backend(be->name));
    SCOPED_TRACE(be->name);
    std::vector<VerifyJob> jobs;
    std::vector<Bytes> messages;
    messages.reserve(std::size(vectors));
    for (const auto& v : vectors) {
      auto seed = arr_from_hex<kEd25519SeedSize>(v.seed);
      auto pub = arr_from_hex<kEd25519PublicKeySize>(v.pub);
      auto sig = arr_from_hex<kEd25519SignatureSize>(v.sig);
      auto msg = from_hex(v.msg);
      ASSERT_TRUE(msg.has_value());
      messages.push_back(*msg);
      EXPECT_EQ(ed25519_public_key(seed), pub);
      EXPECT_EQ(ed25519_sign(seed, pub, ByteSpan(messages.back())), sig);
      EXPECT_TRUE(ed25519_verify(pub, ByteSpan(messages.back()), sig));
      jobs.push_back({pub, ByteSpan(messages.back()), sig});
    }
    auto verdicts = ed25519_verify_batch(jobs);
    ASSERT_EQ(verdicts.size(), jobs.size());
    for (bool ok : verdicts) EXPECT_TRUE(ok);
  }
}

// --------------------------------- randomized scalar-vs-native equivalence

TEST(BackendEquivalence, Sha256OddLengthsAndBlockBoundaries) {
  BackendGuard guard;
  util::Rng rng(101);
  const std::size_t lengths[] = {0,   1,   31,  55,   56,   57,  63,
                                 64,  65,  119, 127,  128,  129, 191,
                                 256, 511, 512, 1000, 4099, 65536 + 7};
  for (std::size_t len : lengths) {
    Bytes data = random_bytes(rng, len);
    ASSERT_TRUE(set_active_backend("scalar"));
    auto want = sha256(ByteSpan(data));
    for (const Backend* be : all_backends()) {
      ASSERT_TRUE(set_active_backend(be->name));
      EXPECT_EQ(sha256(ByteSpan(data)), want)
          << be->name << " diverges at len=" << len;
      // Streaming with awkward chunk sizes straddling block boundaries.
      Sha256 h;
      std::size_t pos = 0;
      while (pos < data.size()) {
        std::size_t chunk = std::min<std::size_t>(1 + rng.below(130),
                                                  data.size() - pos);
        h.update(ByteSpan(data.data() + pos, chunk));
        pos += chunk;
      }
      EXPECT_EQ(h.final(), want)
          << be->name << " streaming diverges at len=" << len;
    }
  }
}

// -------------------------------------------- batch Ed25519 negative tests

struct SignedMessage {
  Ed25519Seed seed;
  Ed25519PublicKey pub;
  Bytes msg;
  Ed25519Signature sig;
};

// n signed messages; message i is signed by key i % signers, so
// signers == n gives every message its own key and fewer signers share keys.
std::vector<SignedMessage> make_signed(util::Rng& rng, std::size_t n,
                                       std::size_t signers) {
  std::vector<SignedMessage> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < signers) {
      for (auto& b : out[i].seed) b = static_cast<std::uint8_t>(rng.below(256));
      out[i].pub = ed25519_public_key(out[i].seed);
    } else {
      out[i].seed = out[i % signers].seed;
      out[i].pub = out[i % signers].pub;
    }
    out[i].msg = random_bytes(rng, 10 + rng.below(90));
    out[i].sig = ed25519_sign(out[i].seed, out[i].pub, ByteSpan(out[i].msg));
  }
  return out;
}

// The signer counts every batch test runs under: one key per message, one
// key for all, and two keys interleaved. Batch verification merges the
// signatures under one key into one term, so the last two exercise the
// merged path.
std::array<std::size_t, 3> signer_layouts(std::size_t n) { return {n, 1, 2}; }

std::vector<VerifyJob> jobs_of(const std::vector<SignedMessage>& sm) {
  std::vector<VerifyJob> jobs;
  jobs.reserve(sm.size());
  for (const auto& s : sm) jobs.push_back({s.pub, ByteSpan(s.msg), s.sig});
  return jobs;
}

TEST(BatchVerify, AllValidBatchesPass) {
  util::Rng rng(201);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{8}, std::size_t{64}}) {
    for (std::size_t signers : signer_layouts(n)) {
      auto sm = make_signed(rng, n, signers);
      auto verdicts = ed25519_verify_batch(jobs_of(sm));
      ASSERT_EQ(verdicts.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(verdicts[i]) << "signers=" << signers << " i=" << i;
      }
    }
  }
}

TEST(BatchVerify, CorruptSignatureAtEachPositionIsAttributed) {
  util::Rng rng(202);
  constexpr std::size_t kBatch = 8;
  for (std::size_t signers : signer_layouts(kBatch)) {
    auto sm = make_signed(rng, kBatch, signers);
    for (std::size_t bad = 0; bad < kBatch; ++bad) {
      auto jobs = jobs_of(sm);
      // Flip one bit in R (first half) or S (second half) alternately.
      jobs[bad].sig[bad % 2 ? 40 : 3] ^= 0x04;
      auto verdicts = ed25519_verify_batch(jobs);
      ASSERT_EQ(verdicts.size(), kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        EXPECT_EQ(verdicts[i], i != bad)
            << "signers=" << signers << " bad=" << bad << " i=" << i;
        // The batch path must agree with single verification exactly.
        EXPECT_EQ(verdicts[i],
                  ed25519_verify(jobs[i].pub, jobs[i].message, jobs[i].sig))
            << "signers=" << signers << " bad=" << bad << " i=" << i;
      }
    }
  }
}

TEST(BatchVerify, CorruptMessageAndWrongKeyAreAttributed) {
  util::Rng rng(203);
  const Ed25519PublicKey outsider = make_signed(rng, 1, 1)[0].pub;
  for (std::size_t signers : signer_layouts(6)) {
    auto sm = make_signed(rng, 6, signers);
    auto jobs = jobs_of(sm);
    Bytes tampered = sm[2].msg;
    tampered[0] ^= 0x80;
    jobs[2].message = ByteSpan(tampered);  // signed bytes != presented bytes
    // Right signature, wrong signer: another key of the batch if it has
    // one, so the job joins that key's merged term.
    jobs[4].pub = sm[5].pub != sm[4].pub ? sm[5].pub : outsider;
    auto verdicts = ed25519_verify_batch(jobs);
    ASSERT_EQ(verdicts.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(verdicts[i], i != 2 && i != 4)
          << "signers=" << signers << " i=" << i;
    }
  }
}

TEST(BatchVerify, MalformedEncodingsRejectedDeterministically) {
  util::Rng rng(204);
  // Non-canonical scalar: S = L (RFC 8032 requires S < L).
  auto order_le = arr_from_hex<32>(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000" "10");
  // A public key with y = p: not a valid encoding (RFC 8032 §5.1.3).
  Ed25519PublicKey y_is_p;
  y_is_p.fill(0xff);
  y_is_p.front() = 0xed;
  y_is_p.back() = 0x7f;
  for (std::size_t signers : signer_layouts(8)) {
    auto sm = make_signed(rng, 8, signers);
    auto jobs = jobs_of(sm);
    std::copy(order_le.begin(), order_le.end(), jobs[1].sig.begin() + 32);
    // Non-canonical field element for R: 2^255 - 1 has y >= p.
    for (std::size_t i = 0; i < 32; ++i) jobs[3].sig[i] = 0xff;
    // One invalid key shared by two jobs.
    jobs[4].pub = y_is_p;
    jobs[6].pub = y_is_p;
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto verdicts = ed25519_verify_batch(jobs);
      ASSERT_EQ(verdicts.size(), jobs.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(verdicts[i], i != 1 && i != 3 && i != 4 && i != 6)
            << "signers=" << signers << " i=" << i;
        EXPECT_EQ(verdicts[i],
                  ed25519_verify(jobs[i].pub, jobs[i].message, jobs[i].sig))
            << "signers=" << signers << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace drum::crypto
