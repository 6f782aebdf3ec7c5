#include "tensor/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace diffode::simd {
namespace {

bool CpuHasAvx2Fma() {
#if DIFFODE_HAS_AVX2_BUILD && (defined(__x86_64__) || defined(_M_X64))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if DIFFODE_HAS_AVX512_BUILD && (defined(__x86_64__) || defined(_M_X64))
  // The backend is compiled with -mavx512f -mavx512dq; both features must be
  // present (DQ covers the 64-bit integer vector ops the f64 exp uses).
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

// Startup resolution: DIFFODE_KERNEL_ISA if set and usable, else the best
// backend CPUID reports. Warnings go to stderr so a bad override is visible
// but harmless.
Isa ResolveStartupIsa() {
  Isa best = Isa::kScalar;
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512})
    if (IsaSupported(isa)) best = isa;
  const char* env = std::getenv("DIFFODE_KERNEL_ISA");
  if (env == nullptr || env[0] == '\0') return best;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (std::strcmp(env, IsaName(isa)) != 0) continue;
    if (IsaSupported(isa)) return isa;
    std::fprintf(stderr,
                 "[DIFFODE] DIFFODE_KERNEL_ISA=%s requested but this "
                 "CPU/build does not support it; using %s kernels\n",
                 env, IsaName(best));
    return best;
  }
  std::fprintf(stderr,
               "[DIFFODE] unknown DIFFODE_KERNEL_ISA value \"%s\" "
               "(expected \"scalar\", \"avx2\", or \"avx512\"); using %s\n",
               env, IsaName(best));
  return best;
}

}  // namespace

namespace detail {

std::atomic<int> g_active_isa{-1};

Isa ResolveActiveIsaSlow() {
  // Publish the startup ISA with a CAS from the unresolved sentinel: if an
  // explicit SetActiveIsa landed between the caller's fast-path load and
  // this call, the override wins and startup resolution is discarded. The
  // local static keeps the stderr warnings to one occurrence.
  static const Isa startup = ResolveStartupIsa();
  int expected = -1;
  g_active_isa.compare_exchange_strong(expected, static_cast<int>(startup),
                                       std::memory_order_relaxed);
  return static_cast<Isa>(g_active_isa.load(std::memory_order_relaxed));
}

}  // namespace detail

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2: {
      static const bool has = CpuHasAvx2Fma();
      return has;
    }
    case Isa::kAvx512: {
      static const bool has = CpuHasAvx512();
      return has;
    }
  }
  return false;
}

bool SetActiveIsa(Isa isa) {
  if (!IsaSupported(isa)) return false;
  detail::g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

}  // namespace diffode::simd
