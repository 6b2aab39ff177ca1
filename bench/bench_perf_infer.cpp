// Inference-engine microbenchmarks → BENCH_inference.json.
//
// Measures the serving hot path at the paper-shaped hyperparameters
// (N = 64 grid, 12 retained modes, 10-in/5-out temporal channels): the
// training-path Fno::forward versus the planned engine's forward_raw over
// the same weights and input (bitwise-identical outputs, see
// tests/test_infer.cpp), the autoregressive rollout cost per produced
// snapshot, and batched multi-trajectory throughput. Variant rows time the
// engine at modes 12 and 20, each recording its prepacked spectral-weight
// bytes next to the timing. The engine's allocation counters and arena
// gauge ride along so the zero-steady-state contract is visible in the
// trajectory record.
//
// Flags (besides the shared --threads / --metrics-out):
//   --out F            JSON output path (default BENCH_inference.json)
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

#include "fft/plan.hpp"
#include "fno/fno.hpp"
#include "infer/engine.hpp"
#include "json_out.hpp"
#include "obs/obs.hpp"
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

/// Time two thunks in interleaved rounds (same schedule for both), so
/// machine-level drift — the dominant noise on a shared single core — hits
/// the numerator and denominator of their ratio equally. Each round times a
/// small batch of each thunk; the reported per-call ns is the fastest round
/// of each series. Timing noise here is strictly additive (scheduler stalls
/// and page-cache hiccups several ms long inflate a round, nothing deflates
/// one), so the minimum is the least-contaminated estimate of intrinsic
/// cost — the same reasoning behind timeit's min-over-repeats advice — and
/// both series get the identical treatment. Returns {ns_a, ns_b}.
std::pair<double, double> time_pair_ns(const std::function<void()>& fa,
                                       const std::function<void()>& fb) {
  using clock = std::chrono::steady_clock;
  fa();
  fa();
  fb();
  fb();
  constexpr index_t kBatch = 16;
  std::vector<double> rounds_a, rounds_b;
  double elapsed = 0.0;
  while (elapsed < 2.0 * g_min_seconds || rounds_a.size() < 5) {
    auto t0 = clock::now();
    for (index_t i = 0; i < kBatch; ++i) fa();
    const double da = std::chrono::duration<double>(clock::now() - t0).count();
    t0 = clock::now();
    for (index_t i = 0; i < kBatch; ++i) fb();
    const double db = std::chrono::duration<double>(clock::now() - t0).count();
    rounds_a.push_back(da);
    rounds_b.push_back(db);
    elapsed += da + db;
  }
  const auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  return {best(rounds_a) * 1e9 / kBatch, best(rounds_b) * 1e9 / kBatch};
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

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  apply_runtime_flags(args);
  g_min_seconds = args.get_double("min-seconds", 0.15);
  const std::string out_path = args.get("out", "BENCH_inference.json");

  // The paper's serving shape: 10 input snapshots → 5 output snapshots on a
  // 64² grid with 12 retained modes. Untrained weights time identically to
  // trained ones.
  fno::FnoConfig cfg;
  cfg.in_channels = 10;
  cfg.out_channels = 5;
  cfg.width = 12;
  cfg.n_layers = 4;
  cfg.n_modes = {12, 12};
  cfg.lifting_channels = 64;
  cfg.projection_channels = 64;
  const index_t grid = 64;
  Rng rng(3);
  fno::Fno model(cfg, rng);

  std::vector<Entry> results;
  const TensorF x = random_tensor({1, cfg.in_channels, grid, grid}, 11);

  // 1+2. Training-path forward versus the planned engine forward over arena
  // buffers (bitwise-identical output), timed in interleaved batches so the
  // reported speedup is drift-free.
  infer::InferenceEngine engine(model);
  engine.plan({1, cfg.in_channels, grid, grid});
  TensorF y;
  engine.forward(x, y);  // sizes y; subsequent calls are allocation-free
  const auto [train_ns, engine_ns] =
      time_pair_ns([&] { (void)model.forward(x); },
                   [&] { engine.forward_raw(x.data(), y.data()); });
  results.push_back({"infer/train_forward_n64", train_ns});
  results.push_back({"infer/engine_forward_n64", engine_ns});
  const double speedup = train_ns / engine_ns;

  // 3. Autoregressive rollout: ns per produced snapshot (20 snapshots =
  //    4 engine invocations per call at 5 output channels).
  const TensorF history =
      random_tensor({1, cfg.in_channels, grid, grid}, 12);
  const index_t steps = 4 * cfg.out_channels;
  TensorF rollout_out;
  const double rollout_call_ns =
      time_ns([&] { engine.rollout_into(history, steps, rollout_out); });
  results.push_back(
      {"infer/rollout_step_n64", rollout_call_ns / static_cast<double>(steps)});

  // 4. Batched serving: 4 trajectories advanced in lockstep.
  const index_t nb = 4;
  const TensorF histories =
      random_tensor({nb, cfg.in_channels, grid, grid}, 13);
  TensorF batched_out;
  const double batched_call_ns =
      time_ns([&] { engine.rollout_into(histories, steps, batched_out); });
  results.push_back({"infer/batched_rollout_step_n64",
                     batched_call_ns / static_cast<double>(nb * steps)});
  const double snapshots_per_s =
      static_cast<double>(nb * steps) / (batched_call_ns * 1e-9);

  // 5. Per-ISA engine forward: a fresh engine planned and timed under each
  //    forced ISA (util::ScopedIsa), so the dispatch layer's end-to-end
  //    effect on the serving path is recorded next to the mainline row
  //    (which rides the auto-resolved ISA). avx2 rows are omitted on hosts
  //    without AVX2+FMA.
  std::vector<std::pair<std::string, double>> isa_speedups;
  {
    std::vector<util::Isa> isas = {util::Isa::kScalar};
    if (util::cpu_supports_avx2()) isas.push_back(util::Isa::kAvx2);
    double isa_ns[2] = {0.0, 0.0};
    for (const util::Isa isa : isas) {
      util::ScopedIsa forced(isa);
      infer::InferenceEngine eng(model);
      eng.plan({1, cfg.in_channels, grid, grid});
      TensorF yy;
      eng.forward(x, yy);  // warm-up sizes the arena
      const double t = time_ns([&] { eng.forward_raw(x.data(), yy.data()); });
      results.push_back({std::string("infer/engine_forward_n64_") +
                             util::isa_name(isa),
                         t});
      isa_ns[static_cast<int>(isa)] = t;
      if (isa == util::Isa::kAvx2) {
        // Same engine with line batching forced off: the per-line FFT path
        // the avx2 lane kernels replaced, so the batching win is recorded
        // in the trajectory. The scalar tier has no lane kernels and runs
        // the per-line path either way.
        fft::ScopedLineBatching perline(false);
        const double tp =
            time_ns([&] { eng.forward_raw(x.data(), yy.data()); });
        results.push_back({"infer/engine_forward_n64_avx2_perline", tp});
        isa_speedups.emplace_back("engine_forward_batched_vs_perline_avx2",
                                  tp / t);
      }
    }
    if (isas.size() == 2) {
      isa_speedups.emplace_back("engine_forward_avx2_vs_scalar",
                                isa_ns[0] / isa_ns[1]);
    }
  }

  // 6. Mode-count variants: the engine at the paper's 12 modes and at 20
  //    modes. Each variant plans a fresh engine on its own model and
  //    records the prepacked spectral working set.
  struct Variant {
    std::string name;
    double ns = 0.0;
    std::int64_t weight_bytes = 0;
    index_t modes = 0;
  };
  std::vector<Variant> variants;
  for (const index_t modes : {index_t{12}, index_t{20}}) {
    fno::FnoConfig vc = cfg;
    vc.n_modes = {modes, modes};
    Rng vrng(17);
    fno::Fno vmodel(vc, vrng);
    infer::InferenceEngine eng(vmodel);
    eng.plan({1, vc.in_channels, grid, grid});
    TensorF yy;
    eng.forward(x, yy);
    Variant v;
    v.name = "infer/engine_forward_n64_m" + std::to_string(modes) +
             "_dense_fp32";
    v.ns = time_ns([&] { eng.forward_raw(x.data(), yy.data()); });
    v.modes = modes;
    v.weight_bytes = static_cast<std::int64_t>(eng.spectral_weight_bytes());
    results.push_back({v.name, v.ns});
    variants.push_back(std::move(v));
  }

  // Steady-state plan-cache discipline: with the engine re-planned for the
  // forward shape (the rollout sections above left it planned for batch 4)
  // and warm, repeated forwards must not fall through the per-thread plan
  // memo — check_tier1.sh asserts this delta is zero.
  engine.plan({1, cfg.in_channels, grid, grid});
  engine.forward(x, y);  // warm: repopulate every worker's plan memo
  const std::int64_t misses_before =
      obs::counter("fft/plan_cache_misses").value();
  for (int r = 0; r < 8; ++r) engine.forward_raw(x.data(), y.data());
  const std::int64_t plan_miss_delta =
      obs::counter("fft/plan_cache_misses").value() - misses_before;
  const std::int64_t batched_lines = obs::counter("fft/batched_lines").value();
  const std::int64_t batch_tails =
      obs::counter("fft/batch_tail_lines").value();
  const std::int64_t column_lines = obs::counter("fft/column_lines").value();

  const std::int64_t steady_allocs =
      obs::counter("infer/steady_state_allocs").value();
  const std::int64_t replans = obs::counter("infer/replans").value();
  const std::int64_t forward_calls =
      obs::counter("infer/forward_calls").value();
  const double arena_bytes = obs::gauge("infer/arena_bytes").value();

  // Human-readable summary.
  std::cout << "# bench_perf_infer (min-seconds " << g_min_seconds << ")\n";
  for (const Entry& e : results) {
    std::printf("%-32s %14.1f ns/op\n", e.name.c_str(), e.ns);
  }
  std::printf("%-32s %14.2fx\n", "engine forward speedup", speedup);
  for (const auto& [name, value] : isa_speedups) {
    std::printf("%-32s %14.2fx\n", name.c_str(), value);
  }
  for (const Variant& v : variants) {
    std::printf("%-44s weights %lld B\n", v.name.c_str(),
                static_cast<long long>(v.weight_bytes));
  }
  std::printf("%-32s %14.1f snapshots/s\n", "batched throughput",
              snapshots_per_s);
  std::printf("%-32s %14lld\n", "steady-state allocs",
              static_cast<long long>(steady_allocs));
  std::printf("%-32s %14.0f bytes\n", "arena", arena_bytes);

  // JSON trajectory record.
  bench::JsonObject res;
  for (const Entry& e : results) res.number(e.name, e.ns, "%.1f");
  bench::JsonObject speed;
  speed.number("engine_forward_vs_train", speedup);
  for (const auto& [name, value] : isa_speedups) speed.number(name, value);
  std::vector<bench::JsonObject> variant_rows;
  for (const Variant& v : variants) {
    bench::JsonObject row;
    row.text("name", v.name);
    row.integer("modes", v.modes);
    row.number("ns_per_op", v.ns, "%.1f");
    row.integer("spectral_weight_bytes", v.weight_bytes);
    variant_rows.push_back(std::move(row));
  }
  bench::JsonObject throughput;
  throughput.number("batched_snapshots_per_s", snapshots_per_s, "%.1f");
  throughput.integer("batched_trajectories", nb);
  bench::JsonObject counters;
  counters.integer("infer/steady_state_allocs", steady_allocs);
  counters.integer("infer/replans", replans);
  counters.integer("infer/forward_calls", forward_calls);
  counters.integer("fft/batched_lines", batched_lines);
  counters.integer("fft/batch_tail_lines", batch_tails);
  counters.integer("fft/column_lines", column_lines);
  counters.integer("fft/plan_cache_misses_steady_delta", plan_miss_delta);
  bench::JsonObject gauges;
  gauges.number("infer/arena_bytes", arena_bytes, "%.0f");
  bench::JsonObject doc;
  doc.object("results_ns_per_op", std::move(res));
  doc.object("speedup", std::move(speed));
  doc.array("variants", std::move(variant_rows));
  doc.object("throughput", std::move(throughput));
  doc.object("counters", std::move(counters));
  doc.object("gauges", std::move(gauges));
  return bench::write_bench_json(out_path, "bench_perf_infer", std::move(doc))
             ? 0
             : 1;
}
