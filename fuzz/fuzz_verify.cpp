// Structure-aware fuzzer for Ed25519 verification (crypto/api.hpp:
// ed25519_verify and ed25519_verify_batch) — the check every data message
// pays before delivery (paper §4).
//
// Contracts under test:
//   * every unmutated signature is accepted, alone and in a batch;
//   * with at most one mutated signature in a batch, every batch verdict
//     equals ed25519_verify's for that job (with two or more, colluding
//     torsion defects may cancel inside the combination — the documented
//     batch caveat — so only the first contract is checked there);
//   * verdicts do not depend on the per-thread signer cache: each batch is
//     verified with the cache emptied first, and again warm;
//   * the batch parse gives every job exactly its one-job parse's result:
//     the same rejection, or the same -R, S and k. The batch runs R's roots
//     and the challenge hashes four at a time on the active backend's lane
//     kernels; a lane that went wrong on a job the check rejects anyway
//     would leave every verdict as it was.
// Mutations hit A, R, S and M: small-order points and added torsion
// components, y >= p encodings, S >= L, flipped sign bits, random bytes and
// altered messages. Batches draw their signers from a small pool, so
// signers repeat within and across batches.
//
// Standalone mode runs a deterministic seed-driven loop (ctest target
// "fuzz_verify_10k", also under ASan/TSan via scripts/check.sh and under
// both DRUM_CRYPTO_BACKEND values in CI); with DRUM_LIBFUZZER the
// byte-oriented fuzz_one() becomes a libFuzzer target.
#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "drum/crypto/api.hpp"
#include "drum/crypto/ed25519_internal.hpp"
#include "drum/crypto/fe25519.hpp"
#include "drum/util/bytes.hpp"
#include "drum/util/rng.hpp"
#include "fuzz_common.hpp"

namespace {

using drum::crypto::Ed25519PublicKey;
using drum::crypto::Ed25519Seed;
using drum::crypto::VerifyJob;
using drum::util::Bytes;
using drum::util::ByteSpan;
namespace detail = drum::crypto::detail;

using Encoding = std::array<std::uint8_t, 32>;

// The group order L, little-endian.
constexpr Encoding kOrder = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                             0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                             0,    0,    0,    0,    0,    0,    0,    0,
                             0,    0,    0,    0,    0,    0,    0,    0x10};

// The batch's verdicts with this thread's signer cache emptied first; the
// verdicts of a second, warm run go to `warm`.
std::vector<bool> batch_cold_and_warm(const std::vector<VerifyJob>& jobs,
                                      std::vector<bool>* warm) {
  detail::signer_cache_clear();
  std::vector<bool> cold = drum::crypto::ed25519_verify_batch(jobs);
  *warm = drum::crypto::ed25519_verify_batch(jobs);
  return cold;
}

// The bytes of a parse result: empty for a rejection, else -R's four
// coordinates, S and k, canonically encoded.
Bytes parse_bytes(const std::optional<detail::ParsedSignature>& p) {
  Bytes out;
  if (!p) return out;
  for (const drum::crypto::Fe* f :
       {&p->neg_r.x, &p->neg_r.y, &p->neg_r.z, &p->neg_r.t}) {
    std::uint8_t b[32];
    drum::crypto::fe_tobytes(b, *f);
    out.insert(out.end(), b, b + 32);
  }
  out.insert(out.end(), p->s.begin(), p->s.end());
  out.insert(out.end(), p->k.begin(), p->k.end());
  return out;
}

// Whether every job's batch parse equals its one-job parse.
bool batch_parse_matches_one_job(const std::vector<VerifyJob>& jobs) {
  const auto batch = detail::parse_signatures(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto one = detail::parse_signatures(std::span(&jobs[i], 1));
    if (parse_bytes(batch[i]) != parse_bytes(one[0])) return false;
  }
  return true;
}

// Byte-level entry: records of pub(32) || sig(64) || len(1) || message.
// Never crashes; when at most one job fails single verification, the batch
// must agree with it.
void fuzz_one(ByteSpan data) {
  std::vector<VerifyJob> jobs;
  while (data.size() >= 97 && jobs.size() < 16) {
    VerifyJob job{};
    std::copy_n(data.begin(), 32, job.pub.begin());
    std::copy_n(data.begin() + 32, 64, job.sig.begin());
    const std::size_t len = std::min<std::size_t>(data[96], data.size() - 97);
    job.message = data.subspan(97, len);
    jobs.push_back(job);
    data = data.subspan(97 + len);
  }
  std::vector<bool> single;
  std::size_t rejected = 0;
  for (const VerifyJob& job : jobs) {
    single.push_back(drum::crypto::ed25519_verify(job.pub, job.message, job.sig));
    rejected += single.back() ? 0 : 1;
  }
  std::vector<bool> warm;
  const std::vector<bool> cold = batch_cold_and_warm(jobs, &warm);
  if (cold != warm) std::abort();
  if (rejected <= 1 && cold != single) std::abort();
  if (!batch_parse_matches_one_job(jobs)) std::abort();
}

#ifndef DRUM_LIBFUZZER

struct Signer {
  Ed25519Seed seed;
  Ed25519PublicKey pub;
};

Encoding encode(const detail::Ge& p) {
  Encoding out;
  detail::ge_tobytes(out.data(), p);
  return out;
}

// 32 bytes: `first`, then 30 copies of `fill`, then `last`.
Encoding enc32(std::uint8_t first, std::uint8_t fill, std::uint8_t last) {
  Encoding out;
  out.fill(fill);
  out.front() = first;
  out.back() = last;
  return out;
}

// Points of order 1, 2, 4 and 8, and the order-8 point itself for adding a
// torsion component. The order-8 point is L·P for the first decodable P
// whose torsion part has order 8.
struct Torsion {
  std::vector<Encoding> small_order;
  detail::GeCached t8;
};

Torsion make_torsion() {
  Torsion t;
  t.small_order = {enc32(0x01, 0x00, 0x00), enc32(0xec, 0xff, 0x7f),
                   enc32(0x00, 0x00, 0x00), enc32(0x00, 0x00, 0x80)};
  for (std::uint8_t y = 2;; ++y) {
    detail::Ge p;
    if (!detail::ge_frombytes(p, enc32(y, 0x00, 0x00).data())) continue;
    const detail::MsmEntry term[] = {{kOrder, p}};
    detail::Ge t8;
    detail::ge_msm(t8, term);
    detail::Ge t8x4 = t8;
    detail::ge_dbl(t8x4, t8x4);
    detail::ge_dbl(t8x4, t8x4);
    if (detail::ge_is_identity(t8x4)) continue;
    detail::ge_to_cached(t.t8, t8);
    t.small_order.push_back(encode(t8));
    detail::Ge neg;
    detail::ge_neg(neg, t8);
    t.small_order.push_back(encode(neg));
    return t;
  }
}

// One hostile rewrite of a 32-byte point encoding (A or R).
void mutate_point(std::uint8_t* p, const Torsion& tor, drum::util::Rng& rng) {
  switch (rng.below(5)) {
    case 0: {  // a small-order point
      const Encoding& e = tor.small_order[rng.below(tor.small_order.size())];
      std::copy(e.begin(), e.end(), p);
      break;
    }
    case 1: {  // add an order-8 component
      detail::Ge q;
      if (!detail::ge_frombytes(q, p)) break;
      detail::ge_add(q, q, tor.t8);
      const Encoding e = encode(q);
      std::copy(e.begin(), e.end(), p);
      break;
    }
    case 2: {  // y = p + small: a non-canonical encoding of `small`
      const std::uint8_t small = static_cast<std::uint8_t>(rng.below(19));
      const Encoding e = enc32(static_cast<std::uint8_t>(0xed + small), 0xff,
                               static_cast<std::uint8_t>(0x7f | (p[31] & 0x80)));
      std::copy(e.begin(), e.end(), p);
      break;
    }
    case 3:  // flipped sign bit: -P
      p[31] ^= 0x80;
      break;
    default:  // random bytes
      for (int i = 0; i < 32; ++i) p[i] = static_cast<std::uint8_t>(rng.below(256));
      break;
  }
}

// One hostile rewrite of S.
void mutate_scalar(std::uint8_t* s, drum::util::Rng& rng) {
  switch (rng.below(4)) {
    case 0: {  // S + L: the same value mod L, non-canonical
      unsigned carry = 0;
      for (int i = 0; i < 32; ++i) {
        const unsigned sum = s[i] + kOrder[i] + carry;
        s[i] = static_cast<std::uint8_t>(sum);
        carry = sum >> 8;
      }
      break;
    }
    case 1:  // S = L, or S = 2^256 - 1
      if (rng.below(2) == 0) {
        std::copy(kOrder.begin(), kOrder.end(), s);
      } else {
        std::fill_n(s, 32, 0xff);
      }
      break;
    case 2:  // one flipped bit
      s[rng.below(32)] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    default:  // S = 0
      std::fill_n(s, 32, 0);
      break;
  }
}

#endif  // DRUM_LIBFUZZER

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  fuzz_one(ByteSpan(data, size));
  return 0;
}

#ifndef DRUM_LIBFUZZER

int main(int argc, char** argv) {
  const auto args = drum::fuzz::parse_driver_args(argc, argv);
  drum::util::Rng rng(args.seed);
  const Torsion tor = make_torsion();
  std::vector<Signer> pool(4);
  for (Signer& s : pool) {
    for (auto& b : s.seed) b = static_cast<std::uint8_t>(rng.below(256));
    s.pub = drum::crypto::ed25519_public_key(s.seed);
  }
  auto fail = [&](std::uint64_t i, const std::string& what) {
    drum::fuzz::die("fuzz_verify", i, args.seed, what);
  };

  for (std::uint64_t i = 0; i < args.iterations; ++i) {
    // A batch of 1..4 signatures from the pool, messages of 0..48 bytes.
    const std::size_t n = 1 + rng.below(4);
    std::vector<Bytes> messages;
    std::vector<VerifyJob> jobs;
    messages.reserve(n + 1);
    for (std::size_t k = 0; k < n; ++k) {
      const Signer& s = pool[rng.below(pool.size())];
      messages.push_back(drum::fuzz::random_bytes(rng, rng.below(49)));
      jobs.push_back({s.pub, ByteSpan(messages.back()),
                      drum::crypto::ed25519_sign(s.seed, s.pub,
                                                 ByteSpan(messages.back()))});
    }
    // At most one mutated job.
    const bool mutated = rng.below(4) != 0;
    const std::size_t victim = rng.below(n);
    if (mutated) {
      VerifyJob& job = jobs[victim];
      switch (rng.below(4)) {
        case 0:
          mutate_point(job.pub.data(), tor, rng);
          break;
        case 1:
          mutate_point(job.sig.data(), tor, rng);
          break;
        case 2:
          mutate_scalar(job.sig.data() + 32, rng);
          break;
        default:  // the message: one flipped bit, or one more byte
          messages.push_back(Bytes(job.message.begin(), job.message.end()));
          if (!messages.back().empty() && rng.below(2) == 0) {
            messages.back()[rng.below(messages.back().size())] ^= 0x01;
          } else {
            messages.back().push_back(static_cast<std::uint8_t>(rng.below(256)));
          }
          job.message = ByteSpan(messages.back());
          break;
      }
    }

    if (!batch_parse_matches_one_job(jobs)) {
      fail(i, "the batch parse differs from the one-job parse");
    }
    std::vector<bool> warm;
    const std::vector<bool> cold = batch_cold_and_warm(jobs, &warm);
    if (cold != warm) fail(i, "cold and warm signer caches disagree");
    for (std::size_t k = 0; k < n; ++k) {
      const bool untouched = !mutated || k != victim;
      if (untouched && !cold[k]) {
        fail(i, "valid signature rejected by the batch at index " +
                    std::to_string(k));
      }
    }
    if (mutated) {
      const VerifyJob& job = jobs[victim];
      const bool want =
          drum::crypto::ed25519_verify(job.pub, job.message, job.sig);
      if (cold[victim] != want) {
        fail(i, "batch verdict differs from ed25519_verify for the mutated "
                "signature");
      }
    }
    const VerifyJob& first = jobs[0];
    if ((!mutated || victim != 0) &&
        !drum::crypto::ed25519_verify(first.pub, first.message, first.sig)) {
      fail(i, "valid signature rejected by ed25519_verify");
    }

    // Arbitrary bytes through the byte-level entry (never crashes).
    if (i % 16 == 0) {
      const Bytes noise = drum::fuzz::random_bytes(rng, rng.below(300));
      fuzz_one(ByteSpan(noise));
    }
  }
  std::printf("fuzz_verify: %llu iterations (seed %llu), no failures\n",
              static_cast<unsigned long long>(args.iterations),
              static_cast<unsigned long long>(args.seed));
  return 0;
}

#endif  // DRUM_LIBFUZZER
