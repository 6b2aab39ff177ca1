// Spectral hot-path microbenchmarks → BENCH_spectral.json.
//
// Seeds the repo's perf trajectory with ns/op measurements of the training
// hot path: the batched 2-D real FFT, the SpectralConv forward/backward at
// paper-shaped hyperparameters (N=64, modes=12) with mode pruning on AND
// off (the off numbers are the full-transform baseline the speedup is
// measured against — results are bitwise identical either way), the same
// layer at modes 20, the GEMM panel kernels, and a full train step of the
// small FNO fixture. Per-ISA roofline rows (suffix
// _scalar / _avx2) re-time the GEMM shapes and a raw c2c transform under
// each forced ISA (util::ScopedIsa) so the dispatch layer's speedup is
// recorded alongside the mainline numbers. The fft/pruned_lines_skipped and
// fft/lines_total counters are exported so pruning coverage rides along
// with the timings.
//
// Flags (besides the shared --threads / --metrics-out):
//   --out F            JSON output path (default BENCH_spectral.json)
//   --min-seconds S    measurement budget per timer (default 0.15;
//                      check_tier1.sh passes a small value for its smoke run)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "fft/fftnd.hpp"
#include "fft/plan.hpp"
#include "fno/fno.hpp"
#include "fno/trainer.hpp"
#include "json_out.hpp"
#include "nn/dataloader.hpp"
#include "nn/spectral_conv.hpp"
#include "obs/obs.hpp"
#include "tensor/gemm.hpp"
#include "util/cli.hpp"
#include "util/isa.hpp"
#include "util/rng.hpp"

namespace {

using namespace turb;

double g_min_seconds = 0.15;

/// Wall-time a thunk: warm up twice, then run batches until the budget is
/// spent; returns mean ns per call.
double time_ns(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  fn();
  fn();
  std::int64_t calls = 0;
  double elapsed = 0.0;
  index_t batch = 1;
  while (elapsed < g_min_seconds) {
    const auto t0 = clock::now();
    for (index_t i = 0; i < batch; ++i) fn();
    elapsed += std::chrono::duration<double>(clock::now() - t0).count();
    calls += batch;
    batch = std::min<index_t>(batch * 2, 64);
  }
  return elapsed * 1e9 / static_cast<double>(calls);
}

struct Entry {
  std::string name;
  double ns = 0.0;
};

TensorF random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  TensorF x(std::move(shape));
  x.fill_normal(rng, 0.0, 1.0);
  return x;
}

/// Spectral-layer fwd / bwd / fwd+bwd at N=64 — the acceptance microbench.
/// Returns {fwd, bwd, fwdbwd} ns/op for the layer under the current pruning
/// setting.
std::vector<Entry> bench_spectral(nn::SpectralConv& conv,
                                  const std::string& suffix) {
  const TensorF x = random_tensor({8, 8, 64, 64}, 11);
  const TensorF gy = random_tensor({8, 8, 64, 64}, 12);
  // Prime the activation cache so bwd can be timed standalone.
  (void)conv.forward(x);
  std::vector<Entry> out;
  out.push_back({"spectral/fwd_" + suffix,
                 time_ns([&] { (void)conv.forward(x); })});
  out.push_back({"spectral/bwd_" + suffix,
                 time_ns([&] { (void)conv.backward(gy); })});
  out.push_back({"spectral/fwdbwd_" + suffix, time_ns([&] {
                   (void)conv.forward(x);
                   (void)conv.backward(gy);
                 })});
  return out;
}

double bench_train_step() {
  Rng rng(123);
  fno::FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 8;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 16;
  cfg.projection_channels = 16;
  fno::Fno model(cfg, rng);
  nn::DataLoader loader(random_tensor({8, 3, 32, 32}, 21),
                        random_tensor({8, 2, 32, 32}, 22),
                        /*batch_size=*/4, /*shuffle=*/false, /*seed=*/1);
  fno::TrainConfig tc;
  tc.epochs = 1;
  tc.verbose = false;
  const index_t steps_per_epoch = 2;  // 8 samples / batch 4
  return time_ns([&] { (void)fno::train_fno(model, loader, tc); }) /
         static_cast<double>(steps_per_epoch);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  apply_runtime_flags(args);
  g_min_seconds = args.get_double("min-seconds", 0.15);
  const std::string out_path = args.get("out", "BENCH_spectral.json");

  std::vector<Entry> results;

  // 1. Batched 2-D real FFT round trip at the spectral-conv working shape.
  {
    const TensorF x = random_tensor({8, 8, 64, 64}, 3);
    Tensor<std::complex<float>> spec;
    results.push_back({"fft/rfftn2d_n64", time_ns([&] {
                         fft::rfftn_into(x, 2, spec);
                       })});
    TensorF back;
    results.push_back({"fft/irfftn2d_n64", time_ns([&] {
                         fft::irfftn_into(spec, 2, 64, back);
                       })});
  }

  // 2. SpectralConv with full transforms (baseline), then pruned.
  Rng conv_rng(7);
  nn::SpectralConv conv12(8, 8, {12, 12}, conv_rng);
  nn::SpectralConv::set_pruning(false);
  const std::vector<Entry> full = bench_spectral(conv12, "full");
  nn::SpectralConv::set_pruning(true);
  const std::vector<Entry> pruned = bench_spectral(conv12, "pruned");
  results.insert(results.end(), full.begin(), full.end());
  results.insert(results.end(), pruned.begin(), pruned.end());
  const double speedup = full.back().ns / pruned.back().ns;

  // 2b. The layer at modes 20 (pruning on).
  {
    Rng rng_d20(9);
    nn::SpectralConv dense20(8, 8, {20, 20}, rng_d20);
    const std::vector<Entry> d20 = bench_spectral(dense20, "dense_m20");
    results.insert(results.end(), d20.begin(), d20.end());
  }

  // 3. GEMM panel kernels: a Linear-shaped call (rows = batch·spatial) and a
  //    square one for raw arithmetic density.
  {
    const TensorF a = random_tensor({4096, 32}, 31);
    const TensorF b = random_tensor({32, 32}, 32);
    TensorF c({4096, 32});
    results.push_back({"gemm/nn_4096x32x32", time_ns([&] {
                         gemm_nn<float>(4096, 32, 32, 1.0f, a.data(), 32,
                                        b.data(), 32, 0.0f, c.data(), 32);
                       })});
    const TensorF sa = random_tensor({192, 192}, 33);
    const TensorF sb = random_tensor({192, 192}, 34);
    TensorF sc({192, 192});
    results.push_back({"gemm/nn_192cubed", time_ns([&] {
                         gemm_nn<float>(192, 192, 192, 1.0f, sa.data(), 192,
                                        sb.data(), 192, 0.0f, sc.data(), 192);
                       })});
  }

  // 4. Full train step of the small FNO fixture.
  results.push_back({"train/step_fixture", bench_train_step()});

  // 5. Per-ISA microkernel roofline rows: the GEMM shapes from (3) plus a
  //    raw power-of-two c2c transform, re-timed under each forced ISA so
  //    the runtime-dispatch layer's kernel speedup is visible in the
  //    trajectory record (the undecorated rows above ride whatever ISA
  //    resolution picked — normally avx2 where supported). The avx2 rows
  //    are omitted on hosts without AVX2+FMA.
  std::vector<std::pair<std::string, double>> speedups;
  {
    std::vector<util::Isa> isas = {util::Isa::kScalar};
    if (util::cpu_supports_avx2()) isas.push_back(util::Isa::kAvx2);
    const TensorF a = random_tensor({4096, 32}, 41);
    const TensorF b = random_tensor({32, 32}, 42);
    TensorF c({4096, 32});
    const TensorF sa = random_tensor({192, 192}, 43);
    const TensorF sb = random_tensor({192, 192}, 44);
    TensorF sc({192, 192});
    std::vector<std::complex<float>> z(256);
    {
      Rng rng(45);
      for (auto& v : z) {
        v = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
      }
    }
    const fft::PlanC2C<float> p256(256);
    double gemm_ns[2] = {0.0, 0.0};
    double c2c_ns[2] = {0.0, 0.0};
    for (const util::Isa isa : isas) {
      util::ScopedIsa forced(isa);
      const std::string s = util::isa_name(isa);
      results.push_back({"gemm/nn_4096x32x32_" + s, time_ns([&] {
                           gemm_nn<float>(4096, 32, 32, 1.0f, a.data(), 32,
                                          b.data(), 32, 0.0f, c.data(), 32);
                         })});
      const double g = time_ns([&] {
        gemm_nn<float>(192, 192, 192, 1.0f, sa.data(), 192, sb.data(), 192,
                       0.0f, sc.data(), 192);
      });
      results.push_back({"gemm/nn_192cubed_" + s, g});
      gemm_ns[static_cast<int>(isa)] = g;
      const double f = time_ns([&] { p256.forward(z.data()); });
      results.push_back({"fft/c2c_n256_" + s, f});
      c2c_ns[static_cast<int>(isa)] = f;
    }
    if (isas.size() == 2) {
      speedups.emplace_back("gemm_nn_192cubed_avx2_vs_scalar",
                            gemm_ns[0] / gemm_ns[1]);
      speedups.emplace_back("fft_c2c_n256_avx2_vs_scalar",
                            c2c_ns[0] / c2c_ns[1]);
    }
  }

  // 6. Lane-per-line batching: the strided c2c stage of the paper-shaped
  //    spectral conv (N=64, modes 12, rfft-axis spectrum width 33) timed
  //    on the avx2 tier with line batching on vs off. This is the
  //    acceptance sweep for the batched FFT execution path — the same
  //    grouping the engine and rfftn/irfftn drivers use, measured in
  //    isolation. The scalar tier has no lane kernels (its c2c stages take
  //    the per-line loop either way), so it has no leg here.
  if (util::cpu_supports_avx2()) {
    Tensor<std::complex<float>> spec({8, 8, 64, 33});
    {
      Rng rng(46);
      std::complex<float>* d = spec.data();
      for (index_t i = 0; i < spec.size(); ++i) {
        d[i] = {static_cast<float>(rng.normal()),
                static_cast<float>(rng.normal())};
      }
    }
    // modes=12 keep pattern on the 33-bin rfft axis: bins [0, 12).
    std::vector<std::uint8_t> keep(33, 0);
    for (std::size_t k = 0; k < 12; ++k) keep[k] = 1;
    util::ScopedIsa forced(util::Isa::kAvx2);
    double ns[2] = {0.0, 0.0};
    for (const bool batched : {false, true}) {
      fft::ScopedLineBatching toggle(batched);
      ns[batched ? 1 : 0] = time_ns([&] {
        fft::c2c_axis(spec, 2, /*forward=*/true, &keep);
        fft::c2c_axis(spec, 2, /*forward=*/false, &keep);
      });
      results.push_back({std::string("fft/c2c_strided_n64_m12_") +
                             (batched ? "batched" : "perline") + "_avx2",
                         ns[batched ? 1 : 0]});
    }
    speedups.emplace_back("fft_c2c_strided_batched_vs_perline_avx2",
                          ns[0] / ns[1]);
  }

  const std::int64_t skipped =
      obs::counter("fft/pruned_lines_skipped").value();
  const std::int64_t total = obs::counter("fft/lines_total").value();
  const std::int64_t batched_lines = obs::counter("fft/batched_lines").value();
  const std::int64_t batch_tails =
      obs::counter("fft/batch_tail_lines").value();
  const std::int64_t column_lines = obs::counter("fft/column_lines").value();

  // Human-readable summary.
  std::cout << "# bench_perf_train (min-seconds " << g_min_seconds << ")\n";
  for (const Entry& e : results) {
    std::printf("%-28s %14.1f ns/op\n", e.name.c_str(), e.ns);
  }
  std::printf("%-28s %14.2fx\n", "spectral fwd+bwd speedup", speedup);
  for (const auto& [name, value] : speedups) {
    std::printf("%-28s %14.2fx\n", name.c_str(), value);
  }
  std::printf("%-28s %14lld / %lld\n", "pruned lines skipped",
              static_cast<long long>(skipped), static_cast<long long>(total));

  // JSON trajectory record.
  bench::JsonObject res;
  for (const Entry& e : results) res.number(e.name, e.ns, "%.1f");
  bench::JsonObject speed;
  speed.number("spectral_fwdbwd_pruned_vs_full", speedup);
  for (const auto& [name, value] : speedups) speed.number(name, value);
  bench::JsonObject counters;
  counters.integer("fft/pruned_lines_skipped", skipped);
  counters.integer("fft/lines_total", total);
  counters.integer("fft/batched_lines", batched_lines);
  counters.integer("fft/batch_tail_lines", batch_tails);
  counters.integer("fft/column_lines", column_lines);
  bench::JsonObject doc;
  doc.object("results_ns_per_op", std::move(res));
  doc.object("speedup", std::move(speed));
  doc.object("counters", std::move(counters));
  return bench::write_bench_json(out_path, "bench_perf_train", std::move(doc))
             ? 0
             : 1;
}
