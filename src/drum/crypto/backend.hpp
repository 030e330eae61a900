// crypto::Backend — runtime dispatch of the SHA-256 block function between
// the portable scalar reference implementation and the SHA-NI one.
//
// Why it exists: the paper's cost model (§6, App. A–C) bounds a victim's
// survivability by how cheaply it processes an adversarial flood — every
// fabricated port box a channel's read budget admits costs an HMAC-SHA256
// check before it can be discarded. Hardware compression shrinks that
// per-message cost.
//
// Design: SHA-256 keeps its scalar implementation as the portable reference
// backend; the SHA-NI translation unit (compiled with its own -m flags, so
// the rest of the tree stays portable) exports an alternative entry point
// for the block-level hot loop only. A Backend is a name and a function
// pointer; the active one is chosen once at startup from CPUID and can be
// forced with DRUM_CRYPTO_BACKEND=scalar|native (or from tests/benches via
// set_active_backend()). All backends are bit-identical: they implement the
// same FIPS 180-4 compression.
//
// One slot, one stream. The per-round read budgets (paper §4) cap how many
// port boxes reach the MAC, so an ingress pass rarely holds eight of them:
// in the flood, steady and scale benchmark workloads 86–94% of the passes
// that opened any box opened 1–3, and under 3% opened eight or more. Boxes
// are therefore opened one at a time, and there is no multi-buffer slot.
// ChaCha20 has no slot either: the port box encrypts less than one keystream
// block, so a block-parallel kernel would never run.
//
// Callers never include this header to do crypto — they use
// drum/crypto/api.hpp, which routes through the active backend internally.
// This header is for tests, benchmarks, and startup diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace drum::crypto {

/// The block-level entry point one backend provides. Never null: a backend
/// missing an ISA path carries the scalar function.
struct Backend {
  const char* name;

  /// SHA-256: compress `nblocks` consecutive 64-byte blocks into `state`
  /// (FIPS 180-4 §6.2.2). `state` is the 8-word working hash, host order.
  void (*sha256_compress)(std::uint32_t state[8], const std::uint8_t* blocks,
                          std::size_t nblocks);
};

/// The portable reference backend (always available, any architecture).
const Backend& scalar_backend();

/// The best backend this build and this CPU support. Falls back to the
/// scalar function when the ISA path is missing, and equals
/// scalar_backend()'s table entirely on non-x86 builds.
const Backend& native_backend();

/// True when native_backend() runs SHA-NI.
bool native_backend_accelerated();

/// The backend the SHA-256 entry points route through. Resolved once on
/// first use: native unless DRUM_CRYPTO_BACKEND=scalar is set in the
/// environment (DRUM_CRYPTO_BACKEND=native is accepted and is the default;
/// any other value is ignored with a warning).
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
};
const CpuFeatures& cpu_features();

}  // namespace drum::crypto
