// Fault-injection smoke check for the robustness layer, run by
// scripts/check_tier1.sh:
//
//   1. save a checkpoint, corrupt it (bit flip, truncation), and verify the
//      loader rejects each corruption with a "corrupt checkpoint" error
//      while `robust/corrupt_rejected` increments;
//   1b. checkpoint format matrix: v2 (CRC) and legacy v1 (pre-CRC) payloads
//      load;
//   2. run a hybrid rollout whose surrogate is forced to diverge
//      (core::DivergentPropagator) and verify the guard trips, the
//      trajectory stays finite, and PDE fallback windows appear.
//
// Exits non-zero on the first failed expectation. Pass --metrics-out F to
// dump the robust/* counters for the script to assert on.
//
// Run:  ./robust_smoke [--grid 32] [--snapshots 16] [--metrics-out m.json]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/turbfno.hpp"
#include "nn/linear.hpp"
#include "util/cli.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// True when loading `path` throws a CheckError mentioning "corrupt".
bool load_rejected(const std::string& path,
                   const std::vector<turb::nn::Parameter*>& params) {
  try {
    turb::nn::load_parameters(path, params);
  } catch (const turb::CheckError& e) {
    return std::strstr(e.what(), "corrupt checkpoint") != nullptr;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace turb;
  const CliArgs args(argc, argv);
  apply_runtime_flags(args);

  // --- corrupted checkpoints are rejected, not half-loaded ---------------
  const std::string ckpt = "robust_smoke_ckpt.tnn";
  Rng rng(1);
  nn::Linear layer(4, 4, rng);
  nn::save_parameters(ckpt, layer.parameters(), {{"dt_tc", 0.01}});
  const std::string good = read_file(ckpt);
  expect(good.size() > 12 && good.compare(0, 4, "TNN2") == 0,
         "checkpoint saved in TNN2 format");

  nn::load_parameters(ckpt, layer.parameters());
  expect(true, "uncorrupted checkpoint loads");

  std::string flipped = good;
  flipped[good.size() / 2] = static_cast<char>(
      static_cast<unsigned char>(flipped[good.size() / 2]) ^ 0x20u);
  write_file(ckpt, flipped);
  expect(load_rejected(ckpt, layer.parameters()),
         "bit-flipped checkpoint rejected as corrupt");

  write_file(ckpt, good.substr(0, good.size() / 2));
  expect(load_rejected(ckpt, layer.parameters()),
         "truncated checkpoint rejected as corrupt");

  write_file(ckpt, good);
  nn::load_parameters(ckpt, layer.parameters());
  expect(true, "restored checkpoint loads again");

  // --- checkpoint format matrix: v2 + v1 backcompat ----------------------
  {
    nn::Linear saved(4, 4, rng), loaded(4, 4, rng);
    // v2 is what the plain save above wrote ("restored checkpoint loads
    // again" is the v2 leg); v1 needs a hand-rolled pre-CRC payload.
    std::string v1 = "TNN1";
    const auto put_u32 = [&v1](std::uint32_t v) {
      v1.append(reinterpret_cast<const char*>(&v), 4);
    };
    const std::vector<nn::Parameter*> params = saved.parameters();
    put_u32(static_cast<std::uint32_t>(params.size()));
    for (const nn::Parameter* p : params) {
      put_u32(static_cast<std::uint32_t>(p->name.size()));
      v1 += p->name;
      put_u32(static_cast<std::uint32_t>(p->value.rank()));
      for (const index_t d : p->value.shape()) {
        const auto d64 = static_cast<std::int64_t>(d);
        v1.append(reinterpret_cast<const char*>(&d64), 8);
      }
      v1.append(reinterpret_cast<const char*>(p->value.data()),
                static_cast<std::size_t>(p->value.size()) * sizeof(float));
    }
    put_u32(0);  // empty metadata
    write_file(ckpt, v1);
    nn::load_parameters(ckpt, loaded.parameters());
    bool v1_ok = true;
    for (index_t i = 0; i < saved.weight().value.size(); ++i) {
      v1_ok = v1_ok && loaded.weight().value[i] == saved.weight().value[i];
    }
    expect(v1_ok, "legacy TNN1 checkpoint still loads");
  }
  std::remove(ckpt.c_str());

  // --- divergent rollout is detected and degrades to the PDE -------------
  const auto grid = static_cast<index_t>(args.get_int("grid", 32));
  const auto snapshots = static_cast<index_t>(args.get_int("snapshots", 16));
  const auto make_solver = [grid] {
    ns::NsConfig cfg;
    cfg.n = grid;
    cfg.viscosity = 1e-3;
    cfg.dt = 1e-3;
    return std::make_unique<ns::SpectralNsSolver>(cfg);
  };
  constexpr double kDtSnap = 0.01;
  core::PdePropagator inner(make_solver(), kDtSnap);
  core::DivergentPropagator divergent(inner, /*healthy_snapshots=*/2,
                                      core::DivergentPropagator::Mode::nan);
  core::PdePropagator pde(make_solver(), kDtSnap);

  core::HybridConfig hybrid;
  hybrid.fno_snapshots = 4;
  hybrid.pde_snapshots = 3;
  hybrid.guard.enabled = true;
  hybrid.guard.cooldown_snapshots = 3;
  core::HybridScheduler scheduler(divergent, pde, hybrid);

  Rng seed_rng(7);
  const auto field =
      lbm::random_vortex_velocity(grid, grid, 4.0, 1.0, seed_rng);
  core::History seed;
  core::FieldSnapshot snap;
  snap.t = 0.0;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  seed.push_back(std::move(snap));

  const core::RolloutResult result = scheduler.run(seed, snapshots);
  expect(static_cast<index_t>(result.trajectory.size()) == snapshots,
         "guarded rollout produced the full trajectory");
  expect(result.guard_trips() > 0, "guard tripped on the divergent surrogate");

  bool finite = true;
  for (const core::FieldSnapshot& s : result.trajectory) {
    for (index_t i = 0; i < s.u1.size(); ++i) {
      if (!std::isfinite(s.u1[i]) || !std::isfinite(s.u2[i])) finite = false;
    }
  }
  expect(finite, "trajectory is finite everywhere");

  bool saw_fallback = false;
  for (const std::string& producer : result.producer) {
    if (producer.find("_fallback") != std::string::npos) saw_fallback = true;
  }
  expect(saw_fallback, "PDE fallback windows recorded in producer");

  if (g_failures > 0) {
    std::printf("robust_smoke: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("robust_smoke: all checks passed\n");
  return 0;
}
