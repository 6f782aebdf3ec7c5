#ifndef DIFFODE_TENSOR_SIMD_H_
#define DIFFODE_TENSOR_SIMD_H_

#include <atomic>

namespace diffode::simd {

// Instruction-set backends for the kernel layer (tensor/kernels.h). The
// scalar backend is portable C++ and always present; kAvx2 is the AVX2+FMA
// microkernel backend in kernels_avx2.cc and kAvx512 the AVX-512 (F+DQ)
// backend in kernels_avx512.cc, both compiled only on x86-64.
//
// Dispatch is resolved once at startup to the best backend CPUID supports,
// overridable with DIFFODE_KERNEL_ISA=scalar|avx2|avx512 (used by tests and
// CI to pin a backend). The determinism contract is per
// ISA — for a fixed input and a fixed ISA every kernel is bitwise
// reproducible at any thread count; switching ISA may move results by
// rounding-level amounts (different accumulation widths / FMA).
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

// Human-readable backend name ("scalar", "avx2", "avx512").
const char* IsaName(Isa isa);

// True if this binary and this CPU can run `isa` (CPUID feature detection).
bool IsaSupported(Isa isa);

namespace detail {
// Current ISA as an int, or -1 before first resolution. Constant-initialized
// so the fast path of ActiveIsa() is a single relaxed load with no
// function-local-static guard; kernel dispatch reads it on every entry.
extern std::atomic<int> g_active_isa;
// Resolves the startup ISA (CPU detection + DIFFODE_KERNEL_ISA override) and
// publishes it, unless an explicit SetActiveIsa already won the race.
Isa ResolveActiveIsaSlow();
}  // namespace detail

// The ISA the kernel layer is currently dispatching to. Resolved once at
// startup to the best supported ISA unless DIFFODE_KERNEL_ISA overrides it;
// an override naming an unsupported ISA falls back to the best one with a
// warning on stderr. Inline: this sits on every kernel dispatch.
inline Isa ActiveIsa() {
  const int v = detail::g_active_isa.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Isa>(v);
  return detail::ResolveActiveIsaSlow();
}

// Test/bench hook: redirects kernel dispatch to `isa`. Returns false (and
// changes nothing) if the ISA is not supported on this CPU/build. Not safe
// to call while kernels are in flight on other threads.
bool SetActiveIsa(Isa isa);

}  // namespace diffode::simd

#endif  // DIFFODE_TENSOR_SIMD_H_
