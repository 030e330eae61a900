#include "drum/crypto/backend.hpp"

#include <cstdlib>
#include <cstring>

#include "drum/crypto/backend_impl.hpp"
#include "drum/util/log.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace drum::crypto {

namespace {

#if defined(__x86_64__) || defined(_M_X64)
// XCR0, the state components the OS saves on a context switch. Only valid
// when CPUID reports OSXSAVE.
std::uint64_t xgetbv0() {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return std::uint64_t{hi} << 32 | lo;
}

CpuFeatures detect_cpu() {
  CpuFeatures f;
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d)) {
    f.ssse3 = (c >> 9) & 1;
    f.sse41 = (c >> 19) & 1;
    // SSE, AVX (YMM), opmask, ZMM_Hi256 and Hi16_ZMM state.
    constexpr std::uint64_t kAvx512State = 0xE6;
    const bool osxsave = (c >> 27) & 1;
    f.os_avx512 = osxsave && (xgetbv0() & kAvx512State) == kAvx512State;
    unsigned a7 = 0, b7 = 0, c7 = 0, d7 = 0;
    if (__get_cpuid_count(7, 0, &a7, &b7, &c7, &d7)) {
      f.avx512f = (b7 >> 16) & 1;
      f.avx512ifma = (b7 >> 21) & 1;
      f.sha_ni = (b7 >> 29) & 1;
      f.avx512vl = (b7 >> 31) & 1;
    }
  }
  return f;
}
#else
CpuFeatures detect_cpu() { return CpuFeatures{}; }
#endif

Backend make_scalar() {
  Backend b;
  b.name = "scalar";
  b.sha256_compress = detail::sha256_compress_scalar;
  b.x25519_ladder_x4 = nullptr;
  b.fe_pow22523_x4 = nullptr;
  b.sha512_x4 = nullptr;
  return b;
}

Backend make_native() {
  Backend b = make_scalar();
  b.name = "native";
  [[maybe_unused]] const CpuFeatures& cpu = cpu_features();
#if defined(DRUM_CRYPTO_HAVE_SHANI)
  if (cpu.sha_ni && cpu.ssse3 && cpu.sse41) {
    b.sha256_compress = detail::sha256_compress_shani;
  }
#endif
#if defined(DRUM_CRYPTO_HAVE_AVX512)
  if (cpu.avx512f && cpu.avx512vl && cpu.os_avx512) {
    b.sha512_x4 = detail::sha512_x4_avx512;
  }
#endif
#if defined(DRUM_CRYPTO_HAVE_IFMA)
  if (cpu.avx512f && cpu.avx512vl && cpu.avx512ifma && cpu.os_avx512) {
    b.x25519_ladder_x4 = detail::x25519_ladder_x4_ifma;
    b.fe_pow22523_x4 = detail::fe_pow22523_x4_ifma;
  }
#endif
  return b;
}

// The mutable active pointer. Initialized from the environment on first
// use; set_active_backend() (tests/benches only) may swap it later.
const Backend* initial_active() {
  const char* env = std::getenv("DRUM_CRYPTO_BACKEND");
  if (env == nullptr || std::strcmp(env, "native") == 0) {
    return &native_backend();
  }
  if (std::strcmp(env, "scalar") == 0) return &scalar_backend();
  util::log_line(util::LogLevel::kWarn,
                 std::string("ignoring unknown DRUM_CRYPTO_BACKEND=") + env +
                     " (expected scalar|native)");
  return &native_backend();
}

const Backend*& active_slot() {
  static const Backend* active = initial_active();
  return active;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect_cpu();
  return f;
}

const Backend& scalar_backend() {
  static const Backend b = make_scalar();
  return b;
}

const Backend& native_backend() {
  static const Backend b = make_native();
  return b;
}

bool native_backend_accelerated() {
  const Backend& native = native_backend();
  return native.sha256_compress != scalar_backend().sha256_compress ||
         native.x25519_ladder_x4 != nullptr ||
         native.fe_pow22523_x4 != nullptr || native.sha512_x4 != nullptr;
}

const Backend& active_backend() { return *active_slot(); }

bool set_active_backend(std::string_view name) {
  if (name == "scalar") {
    active_slot() = &scalar_backend();
    return true;
  }
  if (name == "native") {
    active_slot() = &native_backend();
    return true;
  }
  return false;
}

std::vector<const Backend*> all_backends() {
  std::vector<const Backend*> out{&scalar_backend()};
  if (native_backend_accelerated()) out.push_back(&native_backend());
  return out;
}

}  // namespace drum::crypto
