// Thread-count determinism contract (see "Parallelism & determinism" in
// DESIGN.md): for a fixed seed, training is bitwise reproducible at any
// parallel width. The tests train the small FNO fixture for 3 epochs at
// widths 1, 2, and 4 (plus once on the process-global pool, whose width
// comes from TURBFNO_THREADS) and require identical loss curves, identical
// serialized weights, and identical held-out rel-L2 — exact equality, no
// tolerances.
//
// The per-width weight dumps are left in the working directory as
// determinism_weights_*.tnn; scripts/check_tier1.sh runs this suite under
// TURBFNO_THREADS=1 and =4 and diffs the dumps across the two runs, which
// extends the contract across processes.
//
// The PDE half of the contract: a forced spectral Navier–Stokes trajectory
// is dumped the same way (determinism_ns_*.bin) at widths 1 and 4 and on the
// global pool, and its scalar-ISA bytes are pinned by a CRC-32. On hosts
// with avx2+fma the fixture dump and the trajectory are pinned under the
// avx2 tier too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fno/fno.hpp"
#include "fno/trainer.hpp"
#include "lbm/initializer.hpp"
#include "nn/dataloader.hpp"
#include "nn/serialize.hpp"
#include "ns/solver.hpp"
#include "util/checksum.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb::fno {
namespace {

FnoConfig fixture_config() {
  FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 8;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 16;
  cfg.projection_channels = 16;
  return cfg;
}

TensorF random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  TensorF x(std::move(shape));
  x.fill_normal(rng, 0.0, 1.0);
  return x;
}

struct RunArtifacts {
  std::vector<double> losses;     // per-epoch mean train loss
  double rel_l2 = 0.0;            // held-out evaluate_fno error
  std::string weight_bytes;       // serialized parameters, verbatim
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One full fixed-seed training run (12 samples, batch 4, 3 epochs) on
/// whatever pool is current, dumping the final weights to `dump_path`.
RunArtifacts train_once(const std::string& dump_path) {
  Rng rng(123);
  Fno model(fixture_config(), rng);
  nn::DataLoader loader(random_tensor({12, 3, 16, 16}, 77),
                        random_tensor({12, 2, 16, 16}, 78),
                        /*batch_size=*/4, /*shuffle=*/true, /*seed=*/9);
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.verbose = false;
  const TrainResult result = train_fno(model, loader, cfg);

  RunArtifacts art;
  for (const EpochStats& stats : result.history) {
    art.losses.push_back(stats.train_loss);
  }
  art.rel_l2 = evaluate_fno(model, random_tensor({6, 3, 16, 16}, 88),
                            random_tensor({6, 2, 16, 16}, 89), 4)
                   .rel_l2;
  nn::save_parameters(dump_path, model.parameters());
  art.weight_bytes = read_bytes(dump_path);
  return art;
}

RunArtifacts train_at_width(std::size_t width) {
  ThreadPool::Scope scope(width);
  return train_once("determinism_weights_t" + std::to_string(width) + ".tnn");
}

void expect_identical(const RunArtifacts& a, const RunArtifacts& b,
                      const std::string& label) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
  for (std::size_t e = 0; e < a.losses.size(); ++e) {
    // Bitwise: EXPECT_EQ on double, not EXPECT_NEAR.
    EXPECT_EQ(a.losses[e], b.losses[e]) << label << " epoch " << e;
  }
  EXPECT_EQ(a.rel_l2, b.rel_l2) << label;
  EXPECT_TRUE(a.weight_bytes == b.weight_bytes)
      << label << ": serialized weights differ ("
      << a.weight_bytes.size() << " vs " << b.weight_bytes.size()
      << " bytes)";
}

TEST(Determinism, TrainingBitwiseIdenticalAcrossThreadCounts) {
  const RunArtifacts t1 = train_at_width(1);
  const RunArtifacts t2 = train_at_width(2);
  const RunArtifacts t4 = train_at_width(4);

  ASSERT_EQ(t1.losses.size(), 3u);
  // The fixture must actually train (regression guard against a silent
  // no-op run making the comparisons vacuous).
  EXPECT_LT(t1.losses.back(), t1.losses.front());
  EXPECT_FALSE(t1.weight_bytes.empty());

  expect_identical(t1, t2, "threads 1 vs 2");
  expect_identical(t1, t4, "threads 1 vs 4");
}

TEST(Determinism, GlobalPoolMatchesScopedRun) {
  // The global pool's width comes from TURBFNO_THREADS / --threads /
  // hardware_concurrency — whatever it is, the result must equal the
  // scoped width-1 run. check_tier1.sh additionally diffs the dump this
  // test writes across TURBFNO_THREADS=1 and =4 ctest passes.
  const RunArtifacts global_run = train_once("determinism_weights_global.tnn");
  const RunArtifacts t1 = train_at_width(1);
  expect_identical(global_run, t1, "global pool vs scoped width 1");
}

/// Fingerprint of a TNN2 dump: the CRC-32 of every byte but the 4-byte
/// trailer. The trailer is the CRC-32 of the bytes between the magic and
/// itself, and a CRC-32 over data followed by that data's own CRC-32 is a
/// constant (the fixed magic in front shifts it by a constant for a given
/// length), so a CRC over the whole file would fingerprint only its length.
std::uint32_t dump_fingerprint(const std::string& bytes) {
  return util::crc32(bytes.data(), bytes.size() - 4);
}

TEST(Determinism, ScalarIsaReproducesSeedFixtureDump) {
  // Golden regression for the scalar reference tier: with the SIMD dispatch
  // forced to scalar, the 3-epoch fixture run must reproduce the exact bytes
  // recorded here. Any change to the scalar kernels, the dispatch plumbing,
  // or the serialization format that perturbs even one bit shows up here.
  //
  // The compiler fuses no multiply-add on its own (src/CMakeLists.txt), so
  // every expression rounds the same wherever it is compiled, sanitizer
  // builds included; the golden still depends on the compiler version and
  // libm. Regenerate it deliberately — never loosen it — when the numerics
  // change on purpose.
  util::ScopedIsa forced(util::Isa::kScalar);
  ThreadPool::Scope scope(1);
  const RunArtifacts run = train_once("determinism_weights_scalar_golden.tnn");
  const std::string& bytes = run.weight_bytes;
  ASSERT_EQ(bytes.size(), 43656u);
  EXPECT_EQ(dump_fingerprint(bytes), 0x978DEE02u);

  // The fingerprint must see the payload, not just the length: flip one
  // weight byte and rewrite the trailer as save_parameters does (CRC-32 of
  // bytes [4, size - 4)).
  const auto trailer_of = [](const std::string& b) {
    return util::crc32(b.data() + 4, b.size() - 8);
  };
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - 4, sizeof(stored));
  ASSERT_EQ(stored, trailer_of(bytes));
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  const std::uint32_t resealed = trailer_of(flipped);
  std::memcpy(flipped.data() + flipped.size() - 4, &resealed,
              sizeof(resealed));
  EXPECT_NE(dump_fingerprint(flipped), dump_fingerprint(bytes));
}

TEST(Determinism, EvaluationBitwiseIdenticalAcrossThreadCounts) {
  // evaluate_fno alone (no training) across widths, fresh model.
  const auto eval_at = [](std::size_t width) {
    ThreadPool::Scope scope(width);
    Rng rng(321);
    Fno model(fixture_config(), rng);
    return evaluate_fno(model, random_tensor({8, 3, 16, 16}, 55),
                        random_tensor({8, 2, 16, 16}, 56), 4)
        .rel_l2;
  };
  const double e1 = eval_at(1);
  EXPECT_EQ(e1, eval_at(2));
  EXPECT_EQ(e1, eval_at(4));
}

/// A forced 32² spectral Navier–Stokes run from a fixed-seed vortex field
/// (k_f = 4 Kolmogorov forcing, 100 RK4 steps) on whatever pool is current:
/// the vorticity every 10 steps as raw doubles, also written to `dump_path`.
std::string ns_trajectory(const std::string& dump_path) {
  ns::NsConfig cfg;
  cfg.n = 32;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  cfg.forcing_amplitude = 0.5;
  cfg.forcing_k = 4;
  ns::SpectralNsSolver solver(cfg);
  Rng rng(2409);
  const auto field = lbm::random_vortex_velocity(cfg.n, cfg.n, 4.0, 1.0, rng);
  solver.set_velocity(field.u1, field.u2);
  std::string bytes;
  for (int frame = 0; frame < 10; ++frame) {
    solver.step(10);
    const TensorD w = solver.vorticity();
    bytes.append(reinterpret_cast<const char*>(w.data()),
                 sizeof(double) * static_cast<std::size_t>(w.size()));
  }
  std::ofstream out(dump_path, std::ios::binary);
  out << bytes;
  EXPECT_TRUE(out.good()) << dump_path;
  return bytes;
}

TEST(Determinism, SpectralNsTrajectory) {
  const auto at_width = [](std::size_t width) {
    ThreadPool::Scope scope(width);
    return ns_trajectory("determinism_ns_t" + std::to_string(width) + ".bin");
  };
  const std::string t1 = at_width(1);
  const std::string t4 = at_width(4);
  const std::string global_run = ns_trajectory("determinism_ns_global.bin");
  ASSERT_EQ(t1.size(), 10u * 32u * 32u * sizeof(double));
  EXPECT_TRUE(t1 == t4) << "PDE trajectory differs between widths 1 and 4";
  EXPECT_TRUE(t1 == global_run)
      << "PDE trajectory differs between the global pool and width 1";
  // The run must actually evolve: the first and last frames differ.
  const std::size_t frame = t1.size() / 10;
  EXPECT_NE(t1.compare(0, frame, t1, t1.size() - frame, frame), 0);

  // Golden for the scalar tier, as for the training fixture above:
  // regenerate it deliberately — never loosen it — when the PDE numerics
  // change on purpose.
  util::ScopedIsa forced(util::Isa::kScalar);
  ThreadPool::Scope scope(1);
  const std::string scalar = ns_trajectory("determinism_ns_scalar_golden.bin");
  EXPECT_EQ(util::crc32(scalar.data(), scalar.size()), 0xABEFE9B9u);
}

// Goldens for the avx2 tier. The f32 fixture run drives the avx2 GEMM and
// f32 FFT kernels; the PDE trajectory drives the f64 FFT kernels. Each avx2
// kernel is one template over util/avx2.hpp's lane traits, and the fixture
// bytes were recorded on the per-type kernels it replaced, so they pin
// every instantiation to its old intrinsic sequence. As for the scalar
// goldens: regenerate deliberately — never loosen — when the avx2 numerics
// change on purpose.

TEST(Determinism, Avx2IsaReproducesPinnedFixtureDump) {
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2+fma";
  util::ScopedIsa forced(util::Isa::kAvx2);
  ThreadPool::Scope scope(1);
  const RunArtifacts run = train_once("determinism_weights_avx2_golden.tnn");
  ASSERT_EQ(run.weight_bytes.size(), 43656u);
  EXPECT_EQ(dump_fingerprint(run.weight_bytes), 0xFAB66675u);
}

TEST(Determinism, Avx2SpectralNsTrajectoryPinned) {
  if (!util::cpu_supports_avx2()) GTEST_SKIP() << "host lacks avx2+fma";
  util::ScopedIsa forced(util::Isa::kAvx2);
  ThreadPool::Scope scope(1);
  const std::string avx2 = ns_trajectory("determinism_ns_avx2_golden.bin");
  EXPECT_EQ(util::crc32(avx2.data(), avx2.size()), 0xD9FE26DEu);
}

}  // namespace
}  // namespace turb::fno
