// crypto::Backend — runtime dispatch of the SHA-256 block functions between
// the portable scalar reference implementation and ISA-specific (SHA-NI /
// AVX2) ones.
//
// Why it exists: the paper's cost model (§6, App. A–C) bounds a victim's
// survivability by how cheaply it processes an adversarial flood — every
// fabricated port box costs an HMAC-SHA256 check before it can be
// discarded, and hmac_sha256_batch runs a flood's boxes eight at a time
// through the multi-buffer path. Vectorized compression shrinks that
// per-message cost, directly widening the flood a node can absorb per round.
//
// Design: SHA-256 keeps its scalar implementation as the portable reference
// backend; ISA-specific translation units (compiled with their own -m flags,
// so the rest of the tree stays portable) export alternative entry points
// for the block-level hot loops only. A Backend is a plain table of function
// pointers; the active one is chosen once at startup from CPUID and can be
// forced with DRUM_CRYPTO_BACKEND=scalar|native (or from tests/benches via
// set_active_backend()). All backends are bit-identical: they implement the
// same FIPS 180-4 compression, differing only in how many blocks they
// process per instruction. ChaCha20 has no slot: the port box encrypts less
// than one keystream block, so a block-parallel kernel would never run.
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

/// Block-level entry points one backend provides. Pointers are never null:
/// a backend missing an ISA path carries the scalar function there.
struct Backend {
  const char* name;

  /// SHA-256: compress `nblocks` consecutive 64-byte blocks into `state`
  /// (FIPS 180-4 §6.2.2). `state` is the 8-word working hash, host order.
  void (*sha256_compress)(std::uint32_t state[8], const std::uint8_t* blocks,
                          std::size_t nblocks);

  /// Eight independent SHA-256 streams in lockstep: for each lane l,
  /// compress `nblocks` consecutive blocks starting at `blocks[l]` into
  /// `states[l]`. The multi-buffer form behind sha256_batch().
  void (*sha256_compress_x8)(std::uint32_t states[8][8],
                             const std::uint8_t* const blocks[8],
                             std::size_t nblocks);
};

/// The portable reference backend (always available, any architecture).
const Backend& scalar_backend();

/// The best backend this build and this CPU support. Falls back to the
/// scalar function per slot when an ISA path is missing, and equals
/// scalar_backend()'s table entirely on non-x86 builds.
const Backend& native_backend();

/// True when native_backend() accelerates at least one slot.
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
  bool avx2 = false;    ///< includes the OS-saves-YMM (XGETBV) check
  bool sha_ni = false;
};
const CpuFeatures& cpu_features();

}  // namespace drum::crypto
