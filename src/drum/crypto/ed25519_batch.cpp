// Batch Ed25519 verification (api.hpp: ed25519_verify_batch).
//
// Scheme: random linear combination. Each signature i satisfies, when valid,
//     S_i·B = R_i + k_i·A_i        with k_i = SHA512(R_i || A_i || M_i) mod L.
// Draw independent random 128-bit odd coefficients z_i and check the single
// combined equation
//     (Σ z_i S_i mod L)·B + Σ z_i·(-R_i) + Σ (z_i k_i mod L)·(-A_i) == O
// with one detail::ge_msm call, the multi-scalar multiplication single
// verification also uses, sharing its ~252 doublings across the batch. An invalid
// signature makes the combination non-zero except with probability ~2^-128
// over the z_i (odd z_i so a single signature's small-torsion defect can
// never cancel itself).
//
// Verdict policy: per-signature parse failures (non-canonical S, invalid A
// or R encodings) are rejected deterministically before the combined check,
// exactly as ed25519_verify does. If the combined equation fails, the batch
// falls back to per-signature ed25519_verify so the bad indices are
// attributed exactly. The one intentional divergence from per-signature
// verification: several colluding signatures whose defects all lie in the
// order-8 torsion subgroup can cancel each other inside the combination and
// be accepted (the standard cofactored-style batch caveat, cf. RFC 8032
// §8.9); unforgeability is unaffected since the prime-order component —
// the part bound to the message — is always checked.
#include <random>
#include <vector>

#include "drum/crypto/api.hpp"
#include "drum/crypto/ed25519_internal.hpp"
#include "drum/util/rng.hpp"

namespace drum::crypto {

namespace {

using detail::Ge;
using detail::Scalar;

// 128-bit odd random coefficient, little-endian in the low 16 bytes.
// Process entropy, not the deterministic simulation RNG: an attacker must
// not be able to predict the combination coefficients.
Scalar random_z128_odd() {
  thread_local util::Rng rng = [] {
    std::random_device rd;
    const std::uint64_t seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    return util::Rng(seed);
  }();
  Scalar z{};
  std::uint64_t lo = rng.next() | 1;  // odd
  std::uint64_t hi = rng.next();
  for (int i = 0; i < 8; ++i) {
    z[i] = static_cast<std::uint8_t>(lo >> (8 * i));
    z[8 + i] = static_cast<std::uint8_t>(hi >> (8 * i));
  }
  return z;
}

}  // namespace

std::vector<bool> ed25519_verify_batch(std::span<const VerifyJob> jobs) {
  std::vector<bool> verdicts(jobs.size(), false);
  if (jobs.empty()) return verdicts;
  if (jobs.size() == 1) {
    verdicts[0] = ed25519_verify(jobs[0].pub, jobs[0].message, jobs[0].sig);
    return verdicts;
  }

  // Deterministic per-signature parse pass, the same one ed25519_verify
  // runs: non-canonical S and invalid point encodings never reach the
  // probabilistic combined check. Each parsed signature adds its (-R_i,
  // -A_i) pair to the combined equation; the base-point term comes first.
  std::vector<std::size_t> parsed;
  std::vector<detail::MsmEntry> entries;
  parsed.reserve(jobs.size());
  entries.reserve(2 * jobs.size() + 1);
  entries.push_back({{}, detail::base_point()});
  Scalar zs_sum{};  // Σ z_i S_i mod L
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const VerifyJob& job = jobs[i];
    const auto p = detail::parse_signature(job.pub, job.message, job.sig);
    if (!p) continue;
    parsed.push_back(i);
    const Scalar z = random_z128_odd();
    zs_sum = detail::sc_muladd(z, p->s, zs_sum);
    entries.push_back({z, p->neg_r});
    entries.push_back({detail::sc_muladd(z, p->k, Scalar{}), p->neg_a});
  }
  if (parsed.empty()) return verdicts;
  entries[0].scalar = zs_sum;

  Ge sum;
  detail::ge_msm(sum, entries);
  if (detail::ge_is_identity(sum)) {
    for (std::size_t i : parsed) verdicts[i] = true;
    return verdicts;
  }

  // Combined check failed: at least one signature in the batch is bad.
  // Attribute exactly with per-signature verification.
  for (std::size_t i : parsed) {
    verdicts[i] = ed25519_verify(jobs[i].pub, jobs[i].message, jobs[i].sig);
  }
  return verdicts;
}

}  // namespace drum::crypto
