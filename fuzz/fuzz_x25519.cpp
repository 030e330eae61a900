// Differential fuzzer for batched X25519 (crypto/x25519.hpp: x25519_batch)
// and the batched pair keys built on it (Identity::derive_pair_keys) — the
// keys every node derives at join time to hide its random ports (paper §4).
//
// Contracts under test:
//   * every output of x25519_batch equals the one-point x25519()'s for the
//     same (scalar, point) pair, whatever else shares the batch: other
//     scalars in the other lanes leave it alone, and a small-order point
//     gets the all-zero output and leaves its batch-mates alone;
//   * the ladder agrees with an independent RFC 7748 §5 reference below,
//     which subtracts with the carrying fe_sub and inverts each point's Z
//     on its own;
//   * every key of a pooled derive_pair_keys call over two identities
//     equals derive_pair_key's.
// Batches of one to nine points (so under the native backend every layout
// of the four-lane ladder occurs: full groups, groups of two and three
// padded with a dummy point, a lone remainder on the scalar ladder) mix
// honest public keys and random bytes with small-order points (0, 1,
// p - 1, the two points of order 8), non-canonical encodings (u + p for
// u < 19) and set top bits. Each point draws its own scalar, fresh or
// repeated from an earlier point, so lanes mix shared and distinct
// scalars.
//
// Standalone mode runs a deterministic seed-driven loop (ctest target
// "fuzz_x25519_10k", also under ASan/TSan via scripts/check.sh and under
// both DRUM_CRYPTO_BACKEND values in CI); with DRUM_LIBFUZZER the
// byte-oriented fuzz_one() becomes a libFuzzer target.
#include <algorithm>
#include <string>
#include <vector>

#include "drum/crypto/fe25519.hpp"
#include "drum/crypto/keys.hpp"
#include "drum/crypto/x25519.hpp"
#include "drum/util/bytes.hpp"
#include "drum/util/rng.hpp"
#include "fuzz_common.hpp"

namespace {

using drum::crypto::X25519Key;
using drum::util::ByteSpan;

// Byte-level entry: up to nine 64-byte (scalar, point) pairs. Every
// batched output must equal the one-point output.
void fuzz_one(ByteSpan data) {
  std::vector<X25519Key> scalars, points;
  for (std::size_t at = 0; at + 64 <= data.size() && points.size() < 9;
       at += 64) {
    const auto from = data.begin() + static_cast<std::ptrdiff_t>(at);
    std::copy_n(from, 32, scalars.emplace_back().begin());
    std::copy_n(from + 32, 32, points.emplace_back().begin());
  }
  const std::vector<X25519Key> batch =
      drum::crypto::x25519_batch(scalars, points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (batch[i] != drum::crypto::x25519(scalars[i], points[i])) std::abort();
  }
}

#ifndef DRUM_LIBFUZZER

// RFC 7748 §5 as written: carrying subtractions, one inversion per point.
X25519Key reference_x25519(const X25519Key& scalar, const X25519Key& point) {
  using namespace drum::crypto;
  const X25519Key k = x25519_clamp(scalar);
  Fe x1, x2, z2, x3, z3;
  fe_frombytes(x1, point.data());
  fe_one(x2);
  fe_zero(z2);
  x3 = x1;
  fe_one(z3);
  std::uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
    swap ^= k_t;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = k_t;
    Fe a, aa, b, bb, e, c, d, da, cb, s;
    fe_add(a, x2, z2);
    fe_sq(aa, a);
    fe_sub(b, x2, z2);
    fe_sq(bb, b);
    fe_sub(e, aa, bb);
    fe_add(c, x3, z3);
    fe_sub(d, x3, z3);
    fe_mul(da, d, a);
    fe_mul(cb, c, b);
    fe_add(s, da, cb);
    fe_sq(x3, s);
    fe_sub(s, da, cb);
    fe_sq(s, s);
    fe_mul(z3, x1, s);
    fe_mul(x2, aa, bb);
    fe_mul_small(s, e, 121665);
    fe_add(s, aa, s);
    fe_mul(z2, e, s);
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);
  Fe zinv, out;
  fe_invert(zinv, z2);  // 0 for a small-order point: the output is 0
  fe_mul(out, x2, zinv);
  X25519Key result;
  fe_tobytes(result.data(), out);
  return result;
}

X25519Key from_hex(const std::string& hex) {
  const drum::util::Bytes b = *drum::util::from_hex(hex);
  X25519Key out;
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

X25519Key random_key(drum::util::Rng& rng) {
  X25519Key k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.below(256));
  return k;
}

// One point for a batch: honest, random or hostile.
X25519Key pick_point(const std::vector<X25519Key>& small_order,
                     drum::util::Rng& rng) {
  X25519Key u;
  switch (rng.below(5)) {
    case 0:  // an honest public key
      u = drum::crypto::x25519_base(random_key(rng));
      break;
    case 1:  // a small-order point
      u = small_order[rng.below(small_order.size())];
      break;
    case 2:  // u + p for u < 19: a non-canonical encoding of u
      u.fill(0xff);
      u[0] = static_cast<std::uint8_t>(0xed + rng.below(19));
      u[31] = 0x7f;
      break;
    default:  // random bytes
      u = random_key(rng);
      break;
  }
  if (rng.below(4) == 0) u[31] |= 0x80;  // the ignored top bit
  return u;
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
  const std::vector<X25519Key> small_order = {
      from_hex(std::string(64, '0')),
      from_hex("01" + std::string(62, '0')),
      from_hex("ec" + std::string(60, 'f') + "7f"),
      from_hex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
      from_hex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
  };
  std::vector<drum::crypto::Identity> identities;
  for (int i = 0; i < 2; ++i) {
    identities.push_back(drum::crypto::Identity::generate(rng));
  }
  auto fail = [&](std::uint64_t i, const std::string& what) {
    drum::fuzz::die("fuzz_x25519", i, args.seed, what);
  };

  for (std::uint64_t i = 0; i < args.iterations; ++i) {
    // A batch of 1..9 points, each under a fresh scalar or an earlier
    // point's.
    const std::size_t n = 1 + rng.below(9);
    std::vector<X25519Key> scalars, points;
    for (std::size_t k = 0; k < n; ++k) {
      scalars.push_back(k > 0 && rng.below(3) == 0 ? scalars[rng.below(k)]
                                                   : random_key(rng));
      points.push_back(pick_point(small_order, rng));
    }

    const std::vector<X25519Key> batch =
        drum::crypto::x25519_batch(scalars, points);
    if (batch.size() != n) fail(i, "batch size differs");
    for (std::size_t k = 0; k < n; ++k) {
      if (batch[k] != drum::crypto::x25519(scalars[k], points[k])) {
        fail(i, "batched output differs from x25519() at index " +
                    std::to_string(k));
      }
    }
    const std::size_t probe = rng.below(n);
    if (batch[probe] != reference_x25519(scalars[probe], points[probe])) {
      fail(i, "output differs from the reference ladder at index " +
                  std::to_string(probe));
    }

    if (i % 4 == 0) {
      std::vector<drum::crypto::PairKeyRequest> requests;
      for (const X25519Key& u : points) {
        requests.push_back({&identities[rng.below(2)], u});
      }
      const std::vector<drum::util::Bytes> keys =
          drum::crypto::Identity::derive_pair_keys(requests);
      for (std::size_t k = 0; k < n; ++k) {
        if (keys[k] != requests[k].own->derive_pair_key(points[k])) {
          fail(i, "pooled pair key differs from derive_pair_key at index " +
                      std::to_string(k));
        }
      }
    }

    // Arbitrary bytes through the byte-level entry.
    if (i % 16 == 0) {
      const drum::util::Bytes noise =
          drum::fuzz::random_bytes(rng, rng.below(64 * 10));
      fuzz_one(ByteSpan(noise));
    }
  }
  std::printf("fuzz_x25519: %llu iterations (seed %llu), no failures\n",
              static_cast<unsigned long long>(args.iterations),
              static_cast<unsigned long long>(args.seed));
  return 0;
}

#endif  // DRUM_LIBFUZZER
