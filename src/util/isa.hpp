// Runtime ISA dispatch for the hand-vectorized microkernels.
//
// The library ships two implementations of every hot kernel family (the GEMM
// register panels in tensor/gemm.hpp, the radix-2 c2c butterflies in
// fft/plan.hpp, the rfft/irfft unpack in fft/real.hpp, and the GELU
// epilogue nn::gelu_tile in nn/activation.cpp):
//
//   * scalar — the portable C++ kernels. Always available, and the
//     reference the determinism fixture dumps are pinned to (see
//     tests/test_determinism.cpp).
//   * avx2   — explicit AVX2/FMA intrinsics (AVX2 without FMA for GELU),
//     compiled with per-function target attributes so the translation
//     units themselves stay portable.
//
// The choice is process-wide and resolved once, at the first dispatched
// kernel call, from the TURBFNO_ISA environment variable
// (auto | scalar | avx2; auto picks avx2 when CPUID reports AVX2+FMA) or an
// earlier set_active_isa() call (the --isa runtime flag). Forcing avx2 on a
// CPU without it is an error, not a silent downgrade.
//
// Determinism contract (DESIGN.md "Determinism tiers"):
//
//   Tier A (bitwise, per ISA) — with the ISA fixed, every kernel is bitwise
//     deterministic across thread counts and across the training vs.
//     inference engine paths: dispatch happens inside the one shared kernel
//     instantiation, below the row/line work partition, so the partition and
//     the per-element operation order never depend on the pool width or the
//     caller.
//   Tier B (bounded, cross-ISA) — scalar and avx2 agree within a tested
//     relative-error bound on every kernel (tests/test_isa.cpp); they are
//     NOT bitwise identical (FMA fuses the multiply-add rounding). GELU is
//     the exception: both tiers use plain multiplies and adds and an IEEE
//     divide, so they are bitwise equal.
//
// Observability: the resolved choice is exported as the `isa/active` gauge
// (0 = scalar, 1 = avx2) and every dispatch site bumps a per-family counter
// (`isa/gemm_dispatch_{scalar,avx2}`, `isa/fft_dispatch_{scalar,avx2}`,
// `isa/gelu_dispatch_{scalar,avx2}`) so bench/metrics JSON rows are
// attributable to the kernels that produced them.
#pragma once

#include <atomic>
#include <string>

#include "obs/obs.hpp"

namespace turb::util {

enum class Isa : int { kScalar = 0, kAvx2 = 1 };

/// True when the running CPU (and this build) can execute the AVX2/FMA
/// kernels. Always false on non-x86 builds.
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// Parse "auto" | "scalar" | "avx2" (throws CheckError on anything else).
/// "auto" resolves to avx2 when supported, scalar otherwise.
[[nodiscard]] Isa parse_isa(const std::string& spec);

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

namespace detail {

/// -1 = unresolved; otherwise static_cast<int>(Isa).
extern std::atomic<int> g_active_isa;

/// Resolve from TURBFNO_ISA (or auto) and publish the isa/active gauge.
Isa resolve_isa();

}  // namespace detail

/// The process-wide kernel choice, resolved on first call (see file header).
/// One relaxed atomic load on the hot path after resolution.
inline Isa active_isa() {
  const int v = detail::g_active_isa.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Isa>(v);
  return detail::resolve_isa();
}

/// Force the choice (tests, --isa flag). Overrides TURBFNO_ISA and any
/// earlier resolution; throws CheckError if `isa` is avx2 on a CPU without
/// AVX2/FMA. Kernels dispatched after this call use the new choice — callers
/// switching mid-process (the per-ISA benches, the equivalence tests) own
/// the consistency of their own comparisons.
void set_active_isa(Isa isa);

/// RAII ISA override for tests and benches: forces `isa` on construction,
/// restores the previous resolution state on destruction.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  int previous_;
};

/// Per-family dispatch counters (cached references; see file header).
[[nodiscard]] obs::Counter& gemm_dispatch_counter(Isa isa);
[[nodiscard]] obs::Counter& fft_dispatch_counter(Isa isa);
[[nodiscard]] obs::Counter& gelu_dispatch_counter(Isa isa);

}  // namespace turb::util
