// Backend-dispatch tests for drum::crypto: the published known-answer
// vectors (FIPS 180-4, RFC 8032, RFC 7748) replayed against every compiled
// backend, randomized scalar-vs-native SHA-256 equivalence over odd lengths
// and block boundaries, the four-lane SHA-512 and square-root kernels
// against Sha512 and fe_pow22523 in every lane, batched X25519 against
// one-point X25519 in every lane layout with hostile points, under one
// scalar and a scalar per point, the Ed25519 batch parse against its
// one-job case with hostile R encodings in every lane, and batch Ed25519
// negative tests (a
// corrupted signature at any batch position is detected and attributed to
// exactly that index, and malformed encodings are rejected exactly as
// single verification does), each with one key per signature, one key for
// all and two keys interleaved.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "drum/crypto/api.hpp"
#include "drum/crypto/backend.hpp"
#include "drum/crypto/ed25519.hpp"
#include "drum/crypto/ed25519_internal.hpp"
#include "drum/crypto/fe25519.hpp"
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

Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

X25519Key random_key(util::Rng& rng) {
  X25519Key k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.below(256));
  return k;
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
  EXPECT_EQ(backends.front()->x25519_ladder_x4, nullptr);
  EXPECT_EQ(backends.front()->fe_pow22523_x4, nullptr);
  EXPECT_EQ(backends.front()->sha512_x4, nullptr);
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
  const Backend& native = native_backend();
  // A slot of the native table carries an ISA kernel only if the build
  // compiled it and the CPU (and, for AVX-512, the OS) can run it. On
  // plain-scalar builds no slot does.
  const bool shani = native.sha256_compress != scalar_backend().sha256_compress;
  const bool ifma = native.x25519_ladder_x4 != nullptr;
  const bool sha512_lanes = native.sha512_x4 != nullptr;
  if (shani) {
    EXPECT_TRUE(f.sha_ni && f.ssse3 && f.sse41);
  }
  if (ifma) {
    EXPECT_TRUE(f.avx512f && f.avx512vl && f.avx512ifma && f.os_avx512);
  }
  // The square root and the ladder share the IFMA field kernel.
  EXPECT_EQ(native.fe_pow22523_x4 != nullptr, ifma);
  if (sha512_lanes) {
    EXPECT_TRUE(f.avx512f && f.avx512vl && f.os_avx512);
  }
  // Native is listed, and counts as accelerated, when any slot is.
  const bool any = shani || ifma || sha512_lanes;
  EXPECT_EQ(native_backend_accelerated(), any);
  EXPECT_EQ(all_backends().size(), any ? 2U : 1U);
  // Goes to the log, so a CI run shows which kernels its runner ran.
  std::printf(
      "native backend: SHA-256 %s, X25519 and square roots %s, SHA-512 %s\n",
      shani ? "SHA-NI" : "scalar",
      ifma ? "four-lane AVX-512 IFMA" : "scalar",
      sha512_lanes ? "four-lane AVX-512F/VL" : "scalar");
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

TEST(BackendKat, X25519Rfc7748EveryBackend) {
  BackendGuard guard;
  struct Vector {
    const char* scalar;
    const char* u;
    const char* out;
  };
  // RFC 7748 §5.2 (both single-step vectors) and §6.1 (Alice's secret
  // under Bob's public key).
  const Vector vectors[] = {
      {"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
       "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
       "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
      {"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
       "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
       "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
      {"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
       "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
       "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"}};
  util::Rng rng(301);
  for (const Backend* be : all_backends()) {
    ASSERT_TRUE(set_active_backend(be->name));
    SCOPED_TRACE(be->name);
    for (const auto& v : vectors) {
      const auto scalar = arr_from_hex<kX25519KeySize>(v.scalar);
      const auto u = arr_from_hex<kX25519KeySize>(v.u);
      const auto want = arr_from_hex<kX25519KeySize>(v.out);
      EXPECT_EQ(x25519(scalar, u), want);
      // The vector in every lane of batches of one to five whose other
      // lanes hold other scalars, which must keep their own outputs.
      for (std::size_t n = 1; n <= 5; ++n) {
        for (std::size_t at = 0; at < n; ++at) {
          std::vector<X25519Key> scalars(n), points(n);
          for (std::size_t i = 0; i < n; ++i) {
            scalars[i] = random_key(rng);
            points[i] = x25519_base(random_key(rng));
          }
          scalars[at] = scalar;
          points[at] = u;
          const std::vector<X25519Key> got = x25519_batch(scalars, points);
          EXPECT_EQ(got[at], want) << "n=" << n << " at=" << at;
          for (std::size_t i = 0; i < n; ++i) {
            if (i != at) {
              EXPECT_EQ(got[i], x25519(scalars[i], points[i]))
                  << "n=" << n << " at=" << at << " lane " << i;
            }
          }
        }
      }
    }
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

// The four-lane SHA-512 of one to four messages, lane l hashing msgs[l];
// the lanes past msgs.size() hash the empty message.
std::vector<Sha512::Digest> sha512_lanes(const Backend& be,
                                         const std::vector<Bytes>& msgs) {
  const std::uint8_t* msg[4] = {};
  std::size_t len[4] = {};
  for (std::size_t l = 0; l < msgs.size(); ++l) {
    msg[l] = msgs[l].data();
    len[l] = msgs[l].size();
  }
  std::uint8_t out[4][64];
  be.sha512_x4(msg, len, out);
  std::vector<Sha512::Digest> digests(msgs.size());
  for (std::size_t l = 0; l < msgs.size(); ++l) {
    std::copy_n(out[l], 64, digests[l].begin());
  }
  return digests;
}

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(BackendKat, Sha512LanesFips180EveryBackend) {
  // FIPS 180-4's examples and its million-'a' message: each vector in every
  // lane, beside the others, so the long one also keeps three ended lanes
  // masked for thousands of blocks.
  const std::vector<std::pair<Bytes, std::string>> vectors = {
      {bytes_of("abc"),
       "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
       "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"},
      {Bytes{},
       "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
       "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
      {bytes_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
       "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
       "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"},
      {Bytes(1000000, 'a'),
       "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
       "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b"}};
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name);
    if (be->sha512_x4 == nullptr) continue;  // no lanes: Sha512 alone
    for (std::size_t shift = 0; shift < 4; ++shift) {
      std::vector<Bytes> msgs;
      for (std::size_t l = 0; l < 4; ++l) {
        msgs.push_back(vectors[(l + shift) % 4].first);
      }
      const auto got = sha512_lanes(*be, msgs);
      for (std::size_t l = 0; l < 4; ++l) {
        EXPECT_EQ(to_hex(ByteSpan(got[l])), vectors[(l + shift) % 4].second)
            << "shift=" << shift << " lane " << l;
      }
    }
  }
}

// Groups of one to four messages whose lengths sit around the padding
// edges (the length field needs a second block from 112 bytes on) and at
// steady's challenge size, each length in every lane beside other lengths,
// against Sha512. Each message is an allocation of its exact size, so an
// ASan build also checks that no lane reads past its message.
TEST(BackendEquivalence, Sha512LanesMatchScalarAroundPaddingEdges) {
  util::Rng rng(104);
  const std::size_t lengths[] = {0, 1, 111, 112, 127, 128, 129, 239, 240, 1108};
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name);
    if (be->sha512_x4 == nullptr) continue;
    for (std::size_t group = 1; group <= 4; ++group) {
      for (std::size_t at = 0; at < group; ++at) {
        for (std::size_t len : lengths) {
          std::vector<Bytes> msgs;
          for (std::size_t l = 0; l < group; ++l) {
            const std::size_t n =
                l == at ? len : lengths[rng.below(std::size(lengths))];
            msgs.push_back(random_bytes(rng, n));
          }
          const auto got = sha512_lanes(*be, msgs);
          for (std::size_t l = 0; l < group; ++l) {
            EXPECT_EQ(got[l], sha512(ByteSpan(msgs[l])))
                << "group=" << group << " lane " << l
                << " len=" << msgs[l].size();
          }
        }
      }
    }
  }
}

std::string fe_hex(const Fe& f) {
  std::array<std::uint8_t, 32> b{};
  fe_tobytes(b.data(), f);
  return to_hex(ByteSpan(b));
}

// The four-lane square-root exponentiation against fe_pow22523, each edge
// value in every lane beside random ones: 0, 1, p - 1, and p and
// 2^255 - 1 as fe_frombytes loads them (non-canonical, limbs at the top of
// 2^51), and limbs at the top of fe_mul's tight output range.
TEST(BackendEquivalence, FePow22523LanesMatchScalarInEveryLane) {
  util::Rng rng(105);
  const std::string ff(60, 'f');
  std::vector<Fe> edges;
  for (const std::string& hex :
       {std::string(64, '0'), "01" + std::string(62, '0'), "ec" + ff + "7f",
        "ed" + ff + "7f", "ff" + ff + "7f"}) {
    Fe f;
    fe_frombytes(f, arr_from_hex<32>(hex).data());
    edges.push_back(f);
  }
  constexpr std::uint64_t kTight = (std::uint64_t{1} << 51) + (1 << 13);
  Fe top;
  for (auto& limb : top.v) limb = kTight - 1;
  edges.push_back(top);
  auto random_tight = [&] {
    Fe f;
    for (auto& limb : f.v) limb = rng.next() % kTight;
    return f;
  };
  for (const Backend* be : all_backends()) {
    SCOPED_TRACE(be->name);
    if (be->fe_pow22523_x4 == nullptr) continue;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      for (std::size_t at = 0; at < 4; ++at) {
        Fe in[4], out[4];
        for (std::size_t l = 0; l < 4; ++l) {
          in[l] = l == at ? edges[e] : random_tight();
        }
        be->fe_pow22523_x4(in, out);
        for (std::size_t l = 0; l < 4; ++l) {
          for (auto limb : out[l].v) EXPECT_LT(limb, std::uint64_t{1} << 52);
          Fe want;
          fe_pow22523(want, in[l]);
          EXPECT_EQ(fe_hex(out[l]), fe_hex(want))
              << "edge " << e << " at=" << at << " lane " << l;
        }
      }
    }
  }
}

// Points a batch must survive: small order, non-canonical, top bit set.
std::vector<X25519Key> hostile_points() {
  const std::string ff(60, 'f');
  std::vector<X25519Key> hostile = {
      // Small order: 0, 1, p - 1 and the two points of order 8.
      arr_from_hex<32>(std::string(64, '0')),
      arr_from_hex<32>("01" + std::string(62, '0')),
      arr_from_hex<32>("ec" + ff + "7f"),
      arr_from_hex<32>(
          "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
      arr_from_hex<32>(
          "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
      // Non-canonical: p and p + 1 (0 and 1 again), and 2^255 - 1, whose
      // 51-bit limbs are all at the top of their range.
      arr_from_hex<32>("ed" + ff + "7f"),
      arr_from_hex<32>("ee" + ff + "7f"),
      arr_from_hex<32>("ff" + ff + "7f"),
      // 2^256 - 1: the ignored top bit set over 2^255 - 1.
      arr_from_hex<32>(std::string(64, 'f')),
  };
  for (std::size_t i = 0; i < 5; ++i) {  // top bit over each small-order one
    X25519Key top = hostile[i];
    top[31] |= 0x80;
    hostile.push_back(top);
  }
  return hostile;
}

// Batched X25519 against one-point X25519 (whose lone point always runs
// the scalar ladder) in every lane layout, under every backend: batch sizes
// 1–9 cover full groups of four, padded groups of two and three, and a lone
// remainder; each hostile point sits in each position once. `per_point`
// gives every point its own scalar, as a shard pass's pooled first contacts
// do; otherwise one scalar serves the batch, as a round tick's does.
void expect_batches_match_one_point(bool per_point, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<X25519Key> hostile = hostile_points();
  const X25519Key shared = random_key(rng);
  std::vector<X25519Key> honest(9), scalars(9);
  for (auto& p : honest) p = x25519_base(random_key(rng));
  for (auto& k : scalars) k = per_point ? random_key(rng) : shared;
  // One honest point with its top bit set as well.
  hostile.push_back(honest[0]);
  hostile.back()[31] |= 0x80;
  std::vector<X25519Key> honest_want;
  for (std::size_t i = 0; i < 9; ++i) {
    honest_want.push_back(x25519(scalars[i], honest[i]));
  }
  EXPECT_EQ(x25519(scalars[0], hostile[0]), X25519Key{});

  for (const Backend* be : all_backends()) {
    ASSERT_TRUE(set_active_backend(be->name));
    SCOPED_TRACE(be->name);
    for (std::size_t n = 1; n <= 9; ++n) {
      const std::vector<X25519Key> ks(scalars.begin(), scalars.begin() + n);
      const std::vector<X25519Key> points(honest.begin(), honest.begin() + n);
      const std::vector<X25519Key> want(honest_want.begin(),
                                        honest_want.begin() + n);
      EXPECT_EQ(x25519_batch(ks, points), want) << "n=" << n;
      for (std::size_t at = 0; at < n; ++at) {
        for (std::size_t h = 0; h < hostile.size(); ++h) {
          std::vector<X25519Key> mixed = points;
          std::vector<X25519Key> mixed_want = want;
          mixed[at] = hostile[h];
          mixed_want[at] = x25519(ks[at], hostile[h]);
          EXPECT_EQ(x25519_batch(ks, mixed), mixed_want)
              << "n=" << n << " at=" << at << " hostile=" << h;
        }
      }
    }
  }
}

TEST(BackendEquivalence, X25519BatchesMatchOnePointInEveryLane) {
  BackendGuard guard;
  expect_batches_match_one_point(/*per_point=*/false, 302);
}

TEST(BackendEquivalence, X25519ScalarPerPointMatchesOnePointInEveryLane) {
  BackendGuard guard;
  expect_batches_match_one_point(/*per_point=*/true, 303);
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

// ------------------------------------------------ the Ed25519 batch parse

// A parse result in canonical bytes: "rejected", or -R's four coordinates,
// S and k.
std::string describe(const std::optional<detail::ParsedSignature>& p) {
  if (!p) return "rejected";
  return fe_hex(p->neg_r.x) + " " + fe_hex(p->neg_r.y) + " " +
         fe_hex(p->neg_r.z) + " " + fe_hex(p->neg_r.t) + " " +
         to_hex(ByteSpan(p->s)) + " " + to_hex(ByteSpan(p->k));
}

// Batches of 1–9 valid signatures over messages of 0 to 1044 bytes, and
// the same batches with one job's R replaced by each of the hostile
// table's seven encodings (Ed25519.HostileInputVerdictsArePinned), or its S
// by L, in each position, under every backend: every job's result in the
// batch parse equals its one-job parse's. A wrong root or hash in a lane
// shows in the verdict tests only when it lands on a valid signature; on a
// job the check rejects anyway, it leaves every verdict as it was.
TEST(Ed25519Parse, BatchMatchesOneJobInEveryLane) {
  BackendGuard guard;
  util::Rng rng(205);
  const std::size_t lengths[] = {0, 1, 44, 111, 112, 1044, 200, 63, 500};
  std::vector<SignedMessage> sm = make_signed(rng, 9, 2);
  for (std::size_t i = 0; i < sm.size(); ++i) {
    sm[i].msg = random_bytes(rng, lengths[i]);
    sm[i].sig = ed25519_sign(sm[i].seed, sm[i].pub, ByteSpan(sm[i].msg));
  }
  const std::string ff(60, 'f');
  const std::string zeros(60, '0');
  std::vector<std::array<std::uint8_t, 32>> hostile_r;
  for (const std::string& hex :
       {"01" + zeros + "00", "ec" + ff + "7f", "00" + zeros + "00",
        "02" + zeros + "00", "ed" + ff + "7f", "ee" + ff + "7f",
        "01" + zeros + "80"}) {
    hostile_r.push_back(arr_from_hex<32>(hex));
  }
  const auto order = arr_from_hex<32>(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000" "10");

  auto expect_matches_one_job = [](const std::vector<VerifyJob>& jobs,
                                   const std::string& where) {
    const auto batch = detail::parse_signatures(jobs);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto one = detail::parse_signatures(std::span(&jobs[i], 1));
      EXPECT_EQ(describe(batch[i]), describe(one[0])) << where << " i=" << i;
    }
  };
  for (const Backend* be : all_backends()) {
    ASSERT_TRUE(set_active_backend(be->name));
    SCOPED_TRACE(be->name);
    for (std::size_t n = 1; n <= 9; ++n) {
      std::vector<VerifyJob> valid = jobs_of(sm);  // views into sm
      valid.resize(n);
      for (const auto& p : detail::parse_signatures(valid)) {
        EXPECT_TRUE(p.has_value()) << "n=" << n;
      }
      expect_matches_one_job(valid, "valid n=" + std::to_string(n));
      for (std::size_t at = 0; at < n; ++at) {
        for (std::size_t h = 0; h <= hostile_r.size(); ++h) {
          std::vector<VerifyJob> jobs = valid;
          if (h < hostile_r.size()) {
            std::copy(hostile_r[h].begin(), hostile_r[h].end(),
                      jobs[at].sig.begin());
          } else {
            std::copy(order.begin(), order.end(), jobs[at].sig.begin() + 32);
          }
          expect_matches_one_job(jobs, "n=" + std::to_string(n) +
                                           " at=" + std::to_string(at) +
                                           " hostile=" + std::to_string(h));
        }
      }
    }
  }
}

}  // namespace
}  // namespace drum::crypto
