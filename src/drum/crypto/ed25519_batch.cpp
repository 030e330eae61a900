// Batch Ed25519 verification (api.hpp: ed25519_verify_batch).
//
// Scheme: random linear combination. Each signature i satisfies, when valid,
//     S_i·B = R_i + k_i·A_i        with k_i = SHA512(R_i || A_i || M_i) mod L.
// Draw independent random 128-bit odd coefficients z_i and check the single
// combined equation
//     (Σ z_i S_i mod L)·B + Σ z_i·(-R_i) + Σ_A (Σ_{i: A_i = A} z_i k_i)·(-A) == O
// with one detail::ge_msm call, the multi-scalar multiplication single
// verification also uses, sharing its chain of doublings across the batch.
// An invalid signature makes the combination non-zero except with
// probability ~2^-128 over the z_i (odd z_i so a single signature's
// small-torsion defect can never cancel itself). The z_i come from a
// ChaCha20 keystream under a per-thread 256-bit key from std::random_device,
// one nonce per batch, so an attacker cannot predict them.
//
// Each distinct public key gets one MSM entry, whose scalar sums
// (z_i k_i mod L) over that key's signatures mod 8L, the order of the whole
// curve group. The merged entry is therefore the same group element as the
// per-signature entries even when A has a torsion component, and every
// verdict is the one those entries would give. A batch of n signatures
// under s keys costs n + s + 1 terms, not 2n + 1.
//
// Chain length. The z_i are below 2^128, so the R terms need 128 doublings.
// When every key of the batch was already in the per-thread signer cache
// (detail::signer_lookup), the B term and each key's term are split into
// 128-bit halves against the tables of P and 2^128·P: B's are static, and
// a key's 2^128·(-A) table is built then if it is missing, so the whole sum
// runs 128 doublings. A batch with a key seen for the first time keeps
// full scalars, builds no 2^128 table, and runs the ~253-doubling chain it
// would have run anyway.
//
// Verdict policy: per-signature parse failures (non-canonical S, invalid A
// or R encodings) are rejected deterministically before the combined check,
// exactly as ed25519_verify does: the batch runs the same parse
// (detail::parse_signatures), over all of its signatures under valid keys
// at once. If the combined equation fails, the batch falls back to checking
// each parsed signature alone (detail::verify_parsed, ed25519_verify's
// check), so the bad indices are attributed exactly and nothing is parsed
// twice. The one intentional divergence from per-signature verification:
// several colluding signatures whose defects all lie in the order-8 torsion
// subgroup can cancel each other inside the combination and be accepted
// (the standard cofactored-style batch caveat, cf. RFC 8032 §8.9);
// unforgeability is unaffected since the prime-order component — the part
// bound to the message — is always checked.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "drum/crypto/api.hpp"
#include "drum/crypto/ed25519_internal.hpp"

namespace drum::crypto {

namespace {

using detail::Ge;
using detail::Scalar;

// n random 128-bit odd coefficients, little-endian in the low 16 bytes.
// Process entropy, not the deterministic simulation RNG: an attacker must
// not be able to predict the combination coefficients.
std::vector<Scalar> random_z128_odd(std::size_t n) {
  struct Stream {
    std::array<std::uint8_t, 32> key;
    std::uint64_t batches = 0;  // the nonce: one keystream per batch
  };
  thread_local Stream stream = [] {
    Stream s;
    std::random_device rd;
    for (auto& b : s.key) b = static_cast<std::uint8_t>(rd());
    return s;
  }();
  std::array<std::uint8_t, 12> nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[i] = static_cast<std::uint8_t>(stream.batches >> (8 * i));
  }
  ++stream.batches;
  std::vector<std::uint8_t> keystream(16 * n);
  chacha20_xor(stream.key, nonce, 0, keystream.data(), keystream.size());
  std::vector<Scalar> z(n, Scalar{});
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(keystream.begin() + 16 * i, 16, z[i].begin());
    z[i][0] |= 1;  // odd
  }
  return z;
}

// One distinct public key of the batch: its signer-cache lookup (null
// tables when A does not decode) and the sum of its signatures'
// coefficients z_i k_i mod 8L.
struct Signer {
  detail::SignerLookup cached;
  Scalar scalar{};
  bool used = false;  // some signature under this key passed the parse
};

}  // namespace

std::vector<bool> ed25519_verify_batch(std::span<const VerifyJob> jobs) {
  std::vector<bool> verdicts(jobs.size(), false);
  if (jobs.empty()) return verdicts;
  if (jobs.size() == 1) {
    verdicts[0] = ed25519_verify(jobs[0].pub, jobs[0].message, jobs[0].sig);
    return verdicts;
  }

  // Each distinct key is looked up once; the jobs under a valid key go
  // through the one parse, together. Non-canonical S and invalid point
  // encodings never reach the probabilistic combined check. Each parsed
  // signature adds its -R_i term and its share of its key's -A term.
  const std::vector<Scalar> z = random_z128_odd(jobs.size());
  std::map<Ed25519PublicKey, Signer> signers;
  std::vector<VerifyJob> keyed;
  std::vector<std::size_t> keyed_index;  // the job each keyed one came from
  std::vector<Signer*> keyed_signer;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto [it, fresh] = signers.try_emplace(jobs[i].pub);
    if (fresh) it->second.cached = detail::signer_lookup(jobs[i].pub);
    if (!it->second.cached.tables) continue;
    keyed.push_back(jobs[i]);
    keyed_index.push_back(i);
    keyed_signer.push_back(&it->second);
  }
  const auto parses = detail::parse_signatures(keyed);
  std::vector<std::size_t> parsed;  // indices into keyed
  std::vector<detail::MsmEntry> entries;
  parsed.reserve(keyed.size());
  entries.reserve(3 * keyed.size() + 2);  // R terms, B and key halves
  Scalar zs_sum{};  // Σ z_i S_i mod L
  for (std::size_t j = 0; j < keyed.size(); ++j) {
    if (!parses[j]) continue;
    const detail::ParsedSignature& p = *parses[j];
    const Scalar& zi = z[keyed_index[j]];
    Signer& signer = *keyed_signer[j];
    parsed.push_back(j);
    zs_sum = detail::sc_muladd(zi, p.s, zs_sum);
    entries.push_back({zi, p.neg_r});
    signer.scalar = detail::sc_add_mod_8l(
        signer.scalar, detail::sc_muladd(zi, p.k, Scalar{}));
    signer.used = true;
  }
  if (parsed.empty()) return verdicts;
  bool split = true;  // the 128-doubling chain: every key was cached before
  for (const auto& [pub, signer] : signers) {
    if (signer.used && !signer.cached.warm) split = false;
  }
  detail::push_scalar_terms(entries, zs_sum, detail::base_table(),
                            detail::base_table_hi(), split);
  for (const auto& [pub, signer] : signers) {
    if (!signer.used) continue;
    detail::SignerTables& tables = *signer.cached.tables;
    if (split) detail::signer_add_hi(tables);
    detail::push_scalar_terms(entries, signer.scalar, tables.lo, tables.hi,
                              split);
  }

  Ge sum;
  detail::ge_msm(sum, entries);
  if (detail::ge_is_identity(sum)) {
    for (std::size_t j : parsed) verdicts[keyed_index[j]] = true;
    return verdicts;
  }

  // Combined check failed: at least one signature in the batch is bad.
  // Attribute exactly by checking each parsed signature alone, splitting
  // under the rule ed25519_verify applies to a key cached before the call.
  for (std::size_t j : parsed) {
    const detail::SignerLookup& cached = keyed_signer[j]->cached;
    verdicts[keyed_index[j]] =
        detail::verify_parsed(*cached.tables, cached.warm, *parses[j]);
  }
  return verdicts;
}

}  // namespace drum::crypto
