// Incompressible 2-D Navier–Stokes solver (vorticity–streamfunction form)
// on the periodic unit box.
//
//   ∂ω/∂t + u·∇ω = ν ∇²ω,   ∇²ψ = −ω,   u = (∂ψ/∂y, −∂ψ/∂x)
//
// SpectralNsSolver — pseudo-spectral, 2/3-rule dealiased, RK4 — is the one
// discretisation: the reference solution, and the PDE of the hybrid
// emulator. Its step is planned once per grid and runs allocation-free.
// NsSolver is the interface core::PdePropagator steps.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "fft/fftnd.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace turb::ns {

struct NsConfig {
  index_t n = 64;           ///< grid points per side
  double viscosity = 1e-4;  ///< kinematic viscosity (unit-box units)
  double dt = 1e-3;         ///< time step
  bool dealias = true;      ///< 2/3-rule dealiasing; exposed for the
                            ///< aliasing ablation bench
  /// Kolmogorov forcing f = (A sin(2π k_f y), 0), i.e. a vorticity source
  /// −A·2πk_f·cos(2π k_f y). Zero amplitude = decaying turbulence (the
  /// paper's setting); nonzero exercises the forced-turbulence extension
  /// the paper names in its outlook.
  double forcing_amplitude = 0.0;
  /// When forcing is on: 1 ≤ forcing_k < n/3 with dealiasing, so the
  /// forced mode lies in the band the 2/3 rule keeps; ≤ n/2 without.
  index_t forcing_k = 4;
};

class NsSolver {
 public:
  explicit NsSolver(NsConfig config) : config_(config) {
    TURB_CHECK(config_.n >= 8 && config_.n % 2 == 0);
    TURB_CHECK(config_.viscosity > 0.0 && config_.dt > 0.0);
    // The forced mode must lie in the band the solver keeps.
    const index_t k_max =
        config_.dealias ? (config_.n - 1) / 3 : config_.n / 2;
    TURB_CHECK_MSG(config_.forcing_amplitude == 0.0 ||
                       (config_.forcing_k >= 1 && config_.forcing_k <= k_max),
                   "forcing_k must be in [1, "
                       << k_max << "] ("
                       << (config_.dealias ? "k_f < n/3, the dealiased band"
                                           : "n/2")
                       << "), got " << config_.forcing_k);
  }
  virtual ~NsSolver() = default;

  [[nodiscard]] const NsConfig& config() const { return config_; }

  /// Set the state from a vorticity field (ny, nx).
  virtual void set_vorticity(const TensorD& omega) = 0;

  /// Set the state from a velocity field's vorticity ∂ₓu₂ − ∂ᵧu₁. A
  /// gradient field has no curl, so a divergent input (e.g. an FNO
  /// prediction) installs the vorticity of its solenoidal part, and
  /// velocity() reads back a divergence-free field by Biot–Savart.
  void set_velocity(const TensorD& u1, const TensorD& u2);

  /// Advance `steps` time steps of size config().dt.
  virtual void step(index_t steps = 1) = 0;

  [[nodiscard]] virtual TensorD vorticity() const = 0;

  /// Velocity reconstructed from the current vorticity.
  void velocity(TensorD& u1, TensorD& u2) const;

  [[nodiscard]] double time() const { return time_; }

  /// CFL-stable time step for velocity scale u_max: dt = cfl·Δx/u_max.
  [[nodiscard]] double suggest_dt(double u_max, double cfl = 0.4) const;

 protected:
  NsConfig config_;
  double time_ = 0.0;
};

/// Pseudo-spectral solver with a planned step (DESIGN.md "Planned PDE
/// step"). The constructor builds every table and buffer of the grid once;
/// step() runs RK4 through src/fft's line drivers with zero heap
/// allocations unless a pool wider than any before steps the solver.
class SpectralNsSolver final : public NsSolver {
 public:
  explicit SpectralNsSolver(NsConfig config);
  /// Installs ω̂ with every mode outside the 2/3-rule band set to zero, so
  /// the state is band-limited from the start and stays so.
  void set_vorticity(const TensorD& omega) override;
  void step(index_t steps = 1) override;
  [[nodiscard]] TensorD vorticity() const override;

 private:
  using cpx = std::complex<double>;
  using SpecD = Tensor<cpx>;
  /// out = −dealias(FFT(u·∇ω)) + F̂ − νk²ω̂ for the band-limited spectrum
  /// `what`, with u·∇ω in Basdevant's form (∂ₓₓ − ∂ᵧᵧ)(uv) + ∂ₓ∂ᵧ(v² − u²).
  void rhs(ThreadPool& pool, const SpecD& what, SpecD& out);
  void step_rk4(ThreadPool& pool);
  /// Grow the line scratch to `pool`'s slot count (never shrinks).
  void fit_line_scratch(const ThreadPool& pool);

  // Plan tables, (n, n/2+1) spectrum layout.
  std::vector<double> kx_, ky_;  ///< 2π·deriv_freq per column / row
  std::vector<double> inv_k2_;   ///< 1/k² (k from kx_, ky_), 0 where k² = 0
  std::vector<double> nu_k2_;    ///< ν·k² (k from fft_freq) per element
  std::vector<index_t> kept_cols_;  ///< per row, columns the 2/3 rule keeps
  double forcing_coeff_ = 0.0;      ///< F̂ at rows ±k_f, column 0
  std::vector<cpx> rfft_tw_, irfft_tw_;
  fft::C2cStage block_c2c_;  ///< y-axis stage of the two-plane block

  SpecD what_;       ///< ω̂, the state, zero outside the band
  SpecD k_[4];       ///< RK4 slopes k1–k4
  SpecD stage_;      ///< RK4 stage input ω̂ + c·dt·k
  SpecD block_;      ///< (2, n, n/2+1): û₁, û₂, then the spectra of the
                     ///< fields' products
  TensorD fields_;   ///< (2, n, n): u₁, u₂, then uv, v² − u² in place
  /// fft::LineScratch per pool slot: z ((n/2)·kMaxLanes, which also holds
  /// c2c_stage's one strided line) then u ((n/2+1)·kMaxLanes). Sized for
  /// the current pool by set_vorticity and grown by step() only when a
  /// wider pool steps the solver.
  std::vector<cpx> line_scratch_;
  std::size_t slots_ = 0;
};

}  // namespace turb::ns
