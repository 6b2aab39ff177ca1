// Entropic D2Q9 lattice Boltzmann solver for 2-D decaying turbulence.
//
// This is the paper's data-generation substrate ([26]–[28]): the
// Navier–Stokes equations are solved in discrete-kinetic form on a periodic
// grid. Two collision operators are provided:
//   * BGK        — f ← f + ω (f^eq − f), the classical single-relaxation-time
//                  operator; unstable for under-resolved high-Re runs.
//   * Entropic   — f ← f + α β (f^eq − f) with the path length α solved per
//                  cell from the entropy-equality condition
//                  H(f + αΔ) = H(f),  H(f) = Σᵢ fᵢ ln(fᵢ/wᵢ),
//                  which keeps the discrete H-theorem and stabilises
//                  under-resolved simulations (ablation bench shows BGK
//                  blowing up where the entropic operator survives).
//
// The equilibrium is the closed-form entropy minimiser (product form), the
// same family as the paper's "essentially entropic" model.
//
// Viscosity: ν = c_s² (1/(2β) − 1/2), i.e. β = 1/(6ν + 1) in lattice units.
#pragma once

#include <vector>

#include "lbm/d2q9.hpp"
#include "tensor/tensor.hpp"

namespace turb::lbm {

enum class Collision {
  kBgk,       ///< single relaxation time
  kEntropic,  ///< per-cell α from the entropy-equality condition
  kMrt,       ///< multiple relaxation times (Lallemand–Luo moment basis)
};

struct LbmConfig {
  index_t nx = 64;
  index_t ny = 64;
  double viscosity = 1e-3;  ///< kinematic viscosity in lattice units
  Collision collision = Collision::kEntropic;
  /// Kolmogorov body force Fx(y) = A sin(2π k_f y/ny) via the Guo scheme
  /// (second-order forcing with the half-force velocity shift). Zero = the
  /// paper's decaying setting.
  double force_amplitude = 0.0;
  index_t force_k = 1;
};

/// Per-step diagnostics of the entropic root solve.
struct EntropicStats {
  double alpha_min = 2.0;
  double alpha_max = 2.0;
  index_t newton_cells = 0;  ///< cells that needed the full root solve
};

class LbmSolver {
 public:
  explicit LbmSolver(LbmConfig config);

  [[nodiscard]] const LbmConfig& config() const { return config_; }
  [[nodiscard]] index_t nx() const { return config_.nx; }
  [[nodiscard]] index_t ny() const { return config_.ny; }

  /// Initialise populations at equilibrium with unit density and the given
  /// velocity field (each (ny, nx), lattice units, |u| ≲ 0.1 for low Mach).
  void initialize(const TensorD& u1, const TensorD& u2);

  /// Advance `steps` collide–stream cycles.
  void step(index_t steps = 1);

  /// Macroscopic moments (density and velocity), each (ny, nx).
  [[nodiscard]] TensorD density() const;
  [[nodiscard]] TensorD velocity_x() const;
  [[nodiscard]] TensorD velocity_y() const;

  /// Total kinetic energy Σ ρ|u|²/2 (lattice units).
  [[nodiscard]] double kinetic_energy() const;
  /// Total mass Σ ρ (conserved to round-off).
  [[nodiscard]] double total_mass() const;

  /// Diagnostics from the most recent step().
  [[nodiscard]] const EntropicStats& entropic_stats() const { return stats_; }

  /// Relaxation parameter β = 1/(6ν+1).
  [[nodiscard]] double beta() const { return beta_; }

  /// True if any population went non-finite (solver blow-up detector).
  [[nodiscard]] bool has_blown_up() const;

 private:
  void collide();
  void collide_mrt();
  void stream();

  /// Product-form (entropy-minimising) equilibrium for one cell.
  static void equilibrium(double rho, double ux, double uy,
                          double* feq /*[kQ]*/);

  /// Solve H(f + αΔ) = H(f) for the entropic path length α.
  static double solve_alpha(const double* f, const double* delta);

  LbmConfig config_;
  double beta_;
  index_t cells_;
  // SoA layout: population i at f_[i * cells_ + cell].
  std::vector<double> f_;
  std::vector<double> f_post_;
  EntropicStats stats_;
};

}  // namespace turb::lbm
