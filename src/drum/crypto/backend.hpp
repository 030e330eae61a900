// crypto::Backend — runtime dispatch of four kernels between the portable
// scalar reference implementations and the ISA paths of this CPU: the
// SHA-256 block function (SHA-NI), four X25519 ladders at once and the
// square-root exponentiation of four Ed25519 points at once (both AVX-512
// IFMA), and SHA-512 on four messages at once (AVX-512F/VL).
//
// Why it exists: the paper's cost model (§6, App. A–C) bounds a victim's
// survivability by how cheaply it processes an adversarial flood — every
// fabricated port box a channel's read budget admits costs an HMAC-SHA256
// check before it can be discarded. Hardware compression shrinks that
// per-message cost. And every advertised random port is sealed under a
// pairwise X25519 key (§4), so a correct node pays one X25519 per peer it
// contacts first; a round tick derives its new targets' keys as one batch,
// and a shard pass derives the first-contact keys of all its nodes as one,
// which the four-lane ladder runs for little more than the price of one.
// Every data message is signed (§4), so every receiver checks every
// signature: a batch parses its signatures four at a time, R's square roots
// on the four-lane field kernel and the challenge hashes on the four-lane
// SHA-512.
//
// Design: each primitive keeps its scalar implementation as the portable
// reference; each ISA kernel lives in a translation unit of its own,
// compiled with its own -m flags so the rest of the tree stays portable. A
// Backend is a name and one function pointer per slot; the active one is
// chosen once at startup from CPUID (and XGETBV for the AVX-512 state) and
// can be forced with DRUM_CRYPTO_BACKEND=scalar|native (or from
// tests/benches via set_active_backend()). All backends are bit-identical:
// they implement the same FIPS 180-4 compression, the same RFC 7748 ladder
// and the same field exponentiation.
//
// One SHA-256 stream. The per-round read budgets (paper §4) cap how many
// port boxes reach the MAC, so an ingress pass rarely holds eight of them:
// in the flood, steady and scale benchmark workloads 86–94% of the passes
// that opened any box opened 1–3, and under 3% opened eight or more. Boxes
// are therefore opened one at a time, and there is no multi-buffer slot.
// ChaCha20 has no slot either: the port box encrypts less than one keystream
// block, so a block-parallel kernel would never run.
//
// Four lanes for SHA-512. Signatures are not budgeted per box: a pass's
// verify batch holds a mean of about 5–11 of them on the benchmark
// workloads, so four challenge hashes usually share one call.
//
// Four X25519 lanes, a scalar per lane. A round tick's batch holds 2–4 new
// targets under one node's scalar, and a shard pass's first contacts are
// mostly one to four keys of different co-hosted nodes, so the X25519
// kernel is four lanes of 256 bits, each with its own scalar; x25519_batch
// pads a group of two or three with a public dummy point and keeps a lone
// point on the scalar ladder (DESIGN.md §2). The Ed25519 batch parse groups
// its roots and hashes by the same rule, detail::in_groups_of_four below.
//
// Callers never include this header to do crypto — they use
// drum/crypto/api.hpp, drum/crypto/ed25519.hpp and drum/crypto/x25519.hpp,
// which route through the active backend internally. This header is for
// tests, benchmarks, and startup diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace drum::crypto {

struct Fe;

/// The kernels one backend provides.
struct Backend {
  const char* name;

  /// SHA-256: compress `nblocks` consecutive 64-byte blocks into `state`
  /// (FIPS 180-4 §6.2.2). `state` is the 8-word working hash, host order.
  /// Never null: a backend missing the ISA path carries the scalar function.
  void (*sha256_compress)(std::uint32_t state[8], const std::uint8_t* blocks,
                          std::size_t nblocks);

  /// X25519: four Montgomery ladders (RFC 7748 §5) at once, lane l running
  /// the clamped 32-byte scalar `k[l]` on the u-coordinate `u[l]`
  /// (fe_frombytes output) and writing its projective result to
  /// (x_out[l] : z_out[l]), limbs below 2^52. The lanes' scalars may all
  /// differ or all be the same. Null when the backend has no four-lane
  /// kernel; x25519_batch then runs the scalar ladder on every point.
  void (*x25519_ladder_x4)(const std::uint8_t* const k[4], const Fe* u,
                           Fe* x_out, Fe* z_out);

  /// Ed25519 decompression's square root (RFC 8032 §5.1.3): out[l] =
  /// f[l]^((p-5)/8) for four field elements with tight limbs (below
  /// 2^51 + 2^13, fe25519.hpp), such as fe_mul outputs; out's limbs are
  /// below 2^52. Null when the backend has no four-lane field kernel; the
  /// parse then calls fe_pow22523.
  void (*fe_pow22523_x4)(const Fe* f, Fe* out);

  /// SHA-512 (FIPS 180-4) of four messages at once: lane l hashes the
  /// `len[l]` bytes at `msg[l]` (null when `len[l]` is 0) into `out[l]`. The
  /// lengths may all differ; no lane reads past its message's last byte.
  /// Null when the backend has no four-lane kernel; the parse then hashes
  /// with Sha512.
  void (*sha512_x4)(const std::uint8_t* const msg[4], const std::size_t len[4],
                    std::uint8_t out[4][64]);
};

/// The portable reference backend (always available, any architecture).
const Backend& scalar_backend();

/// The best backend this build and this CPU support. Falls back to the
/// scalar function when the ISA path is missing, and equals
/// scalar_backend()'s table entirely on non-x86 builds.
const Backend& native_backend();

/// True when native_backend() carries an ISA kernel in any slot.
bool native_backend_accelerated();

/// The backend SHA-256, x25519_batch and the Ed25519 parse route through.
/// Resolved once on first use: native unless DRUM_CRYPTO_BACKEND=scalar is
/// set in the environment (DRUM_CRYPTO_BACKEND=native is accepted and is the
/// default; any other value is ignored with a warning).
const Backend& active_backend();

/// Forces the active backend ("scalar" or "native") — a test/bench hook.
/// Not thread-safe: call only while no other thread runs crypto.
/// Returns false (and changes nothing) for unknown names.
bool set_active_backend(std::string_view name);

/// The distinct compiled-in backends, scalar first — tests iterate this to
/// run the KAT suites against every implementation present in the build.
std::vector<const Backend*> all_backends();

/// Raw CPUID feature bits the selection is based on (x86-64; all false on
/// other architectures). Exposed for diagnostics and test logging.
struct CpuFeatures {
  bool ssse3 = false;
  bool sse41 = false;
  bool sha_ni = false;
  bool avx512f = false;
  bool avx512vl = false;
  bool avx512ifma = false;
  /// XGETBV: the OS saves the opmask and full ZMM state (XCR0 bits 1, 2
  /// and 5–7), so AVX-512 instructions may run.
  bool os_avx512 = false;
};
const CpuFeatures& cpu_features();

namespace detail {

/// The grouping rule of every caller of a four-lane slot: `group(i, lanes)`
/// runs items i .. i + lanes - 1 for each group of four when
/// `lanes_kernel`, and a last group of two or three, whose spare lanes the
/// group pads; `one(i)` runs every other item alone: a lone last item, or
/// every item without the kernel.
template <typename Group, typename One>
void in_groups_of_four(std::size_t n, bool lanes_kernel, Group group,
                       One one) {
  std::size_t i = 0;
  if (lanes_kernel) {
    for (; i + 2 <= n; i += 4) group(i, n - i < 4 ? n - i : 4);
  }
  for (; i < n; ++i) one(i);
}

}  // namespace detail

}  // namespace drum::crypto
