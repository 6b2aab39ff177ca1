// turbfno — umbrella public header.
//
// A C++20 reproduction of "Fourier neural operators for spatiotemporal
// dynamics in two-dimensional turbulence" (Atif et al., SC 2024):
//
//   * turb::lbm       — entropic D2Q9 lattice Boltzmann data generator
//   * turb::ns        — pseudo-spectral Navier–Stokes solver
//   * turb::fft       — radix-2/Bluestein real & complex FFTs
//   * turb::nn        — training stack (layers, Adam, losses, gradcheck)
//   * turb::fno       — FNO models (2D temporal-channels and 3D), trainer
//   * turb::data      — ensemble generation, windowing, (de)serialisation
//   * turb::analysis  — flow statistics & Lyapunov-exponent estimation
//   * turb::core      — hybrid FNO–PDE scheduler (the paper's contribution)
//
// Quickstart: see examples/quickstart.cpp.
#pragma once

#include "analysis/lyapunov.hpp"
#include "analysis/stats.hpp"
#include "core/ensemble.hpp"
#include "core/fno_propagator.hpp"
#include "core/hybrid.hpp"
#include "core/metrics.hpp"
#include "core/pde_propagator.hpp"
#include "core/propagator.hpp"
#include "core/rollout_api.hpp"
#include "core/rollout_guard.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "data/windows.hpp"
#include "fno/fno.hpp"
#include "fno/trainer.hpp"
#include "lbm/initializer.hpp"
#include "lbm/solver.hpp"
#include "nn/dataloader.hpp"
#include "nn/deeponet.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/physics_loss.hpp"
#include "nn/serialize.hpp"
#include "nn/sobolev_loss.hpp"
#include "ns/solver.hpp"
#include "ns/spectral_ops.hpp"
