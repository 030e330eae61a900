// Shared machinery for the drum fuzz harnesses (fuzz_decode, fuzz_portbox,
// fuzz_verify).
//
// Each harness is one translation unit with two entry points:
//   * LLVMFuzzerTestOneInput — the libFuzzer hook, always compiled, used
//     when the build sets DRUM_LIBFUZZER (clang, -fsanitize=fuzzer);
//   * a standalone main()   — compiled otherwise; runs a deterministic,
//     seed-driven structure-aware loop (generate a VALID artifact, then
//     mutate it) and is registered as a ctest target, so every sanitizer
//     build in scripts/check.sh also fuzzes.
//
// Determinism matters: a ctest failure must reproduce with the same
// `<iterations> <seed>` argv. All randomness flows from util::Rng.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "drum/util/bytes.hpp"
#include "drum/util/rng.hpp"

namespace drum::fuzz {

/// Structure-aware mutations over an encoded wire artifact. Valid inputs
/// exercise deep decode paths; these mutations keep most of the structure
/// intact so the corruption lands *inside* the parser rather than at the
/// type byte.
inline util::Bytes mutate(const util::Bytes& in, util::Rng& rng) {
  util::Bytes out = in;
  const std::size_t ops = 1 + rng.below(3);
  for (std::size_t op = 0; op < ops; ++op) {
    switch (rng.below(7)) {
      case 0:  // flip 1..8 bits
        if (!out.empty()) {
          const std::size_t flips = 1 + rng.below(8);
          for (std::size_t i = 0; i < flips; ++i) {
            out[rng.below(out.size())] ^=
                static_cast<std::uint8_t>(1u << rng.below(8));
          }
        }
        break;
      case 1:  // truncate at a random offset
        if (!out.empty()) out.resize(rng.below(out.size() + 1));
        break;
      case 2: {  // append random junk (over-length input)
        const std::size_t extra = 1 + rng.below(16);
        for (std::size_t i = 0; i < extra; ++i) {
          out.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
        break;
      }
      case 3:  // stomp a 4-byte window with a huge value (length-field attack)
        if (out.size() >= 4) {
          const std::size_t at = rng.below(out.size() - 3);
          const std::uint32_t v =
              rng.chance(0.5) ? 0xFFFFFFFFu
                              : static_cast<std::uint32_t>(rng.next());
          for (std::size_t i = 0; i < 4; ++i) {
            out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
          }
        }
        break;
      case 4:  // overwrite one byte
        if (!out.empty()) {
          out[rng.below(out.size())] =
              static_cast<std::uint8_t>(rng.below(256));
        }
        break;
      case 5:  // duplicate a random region onto the tail (splice-ish)
        if (!out.empty()) {
          const std::size_t at = rng.below(out.size());
          const std::size_t len =
              1 + rng.below(std::min<std::size_t>(out.size() - at, 32));
          // Copy first: inserting a self-range can reallocate mid-insert.
          const util::Bytes region(
              out.begin() + static_cast<std::ptrdiff_t>(at),
              out.begin() + static_cast<std::ptrdiff_t>(at + len));
          out.insert(out.end(), region.begin(), region.end());
        }
        break;
      case 6:  // delete a random interior region
        if (out.size() >= 2) {
          const std::size_t at = rng.below(out.size() - 1);
          const std::size_t len =
              1 + rng.below(std::min<std::size_t>(out.size() - at, 16));
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(at),
                    out.begin() + static_cast<std::ptrdiff_t>(at + len));
        }
        break;
    }
  }
  return out;
}

/// Fills `n` bytes drawn from `rng`.
inline util::Bytes random_bytes(util::Rng& rng, std::size_t n) {
  util::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

/// Parses `<iterations> <seed>` (both optional) for the standalone driver.
struct DriverArgs {
  std::uint64_t iterations = 10000;
  std::uint64_t seed = 1;
};

inline DriverArgs parse_driver_args(int argc, char** argv) {
  DriverArgs a;
  if (argc > 1) a.iterations = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) a.seed = std::strtoull(argv[2], nullptr, 10);
  return a;
}

/// Uniform failure reporting: print and abort so both ctest and a human see
/// the iteration/seed needed to reproduce.
[[noreturn]] inline void die(const char* harness, std::uint64_t iter,
                             std::uint64_t seed, const std::string& what) {
  std::fprintf(stderr, "%s: FAILED at iteration %llu (seed %llu): %s\n",
               harness, static_cast<unsigned long long>(iter),
               static_cast<unsigned long long>(seed), what.c_str());
  std::abort();
}

}  // namespace drum::fuzz
