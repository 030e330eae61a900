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
// XCR0 via xgetbv: bit 1 = SSE state, bit 2 = AVX (YMM) state. AVX2 is only
// usable when the OS context-switches the YMM registers.
std::uint64_t read_xcr0() {
  std::uint32_t eax = 0, edx = 0;
  __asm__ __volatile__("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

CpuFeatures detect_cpu() {
  CpuFeatures f;
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d)) {
    f.ssse3 = (c >> 9) & 1;
    f.sse41 = (c >> 19) & 1;
    const bool osxsave = (c >> 27) & 1;
    const bool avx = (c >> 28) & 1;
    unsigned a7 = 0, b7 = 0, c7 = 0, d7 = 0;
    if (__get_cpuid_count(7, 0, &a7, &b7, &c7, &d7)) {
      f.sha_ni = (b7 >> 29) & 1;
      const bool avx2_bit = (b7 >> 5) & 1;
      f.avx2 = avx2_bit && avx && osxsave && ((read_xcr0() & 0x6) == 0x6);
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
  b.sha256_compress_x8 = detail::sha256_compress_x8_scalar;
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
#if defined(DRUM_CRYPTO_HAVE_AVX2)
  if (cpu.avx2) {
    b.sha256_compress_x8 = detail::sha256_compress_x8_avx2;
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
  const Backend& n = native_backend();
  const Backend& s = scalar_backend();
  return n.sha256_compress != s.sha256_compress ||
         n.sha256_compress_x8 != s.sha256_compress_x8;
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
