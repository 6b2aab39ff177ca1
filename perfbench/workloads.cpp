#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "core/fault_injection.hpp"
#include "core/turbfno.hpp"
#include "host.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace turb;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Physics and surrogate shape: bench/common.cpp train_hybrid_setup at ci
// scale (32², Re 1000, snapshots every 0.01 t_c; 10-in/5-out FNO, width 12,
// 4 layers, 12 modes, 64-wide lifting and projection).
constexpr index_t kGrid = 32;
constexpr double kReynolds = 1000.0;
constexpr double kDtSnap = 0.01;
constexpr index_t kCin = 10;
constexpr index_t kCout = 5;
constexpr index_t kFnoWindow = 5;
constexpr index_t kPdeWindow = 5;
/// A hybrid request advances the flow by one convective time: ten cycles of
/// an FNO and a PDE window. One request spans many of the host's fast and
/// slow stretches (README.md, "Noise"), so request times are not bimodal.
constexpr index_t kHorizon = 10 * (kFnoWindow + kPdeWindow);
/// rel-L2 checkpoint: the end of the first cycle, 0.1 t_c in, inside the
/// 0.6 t_c the surrogate was trained on.
constexpr index_t kCheckpoint = kFnoWindow + kPdeWindow;
constexpr std::uint64_t kTrainSeed = 1001;
/// Pure-PDE reference cadence after each seed's first request.
constexpr index_t kReferenceEvery = 4;

// Serving traffic. The mix puts phase A's p90 inside one class of sessions
// (the two-window ensembles, 20 %), not on the edge between two classes,
// where it would move with every arrival pattern.
constexpr index_t kServeWindow = 16;  ///< snapshots per scheduling window
constexpr index_t kPlainWindows = 2;  ///< plain sessions: 1 or 2 windows
constexpr index_t kEnsembleWindows = 2;
constexpr index_t kEnsembleK = 4;
constexpr index_t kHealthySnapshots = kServeWindow;  ///< divergent sessions
constexpr double kPlainShare = 0.75;
constexpr double kEnsembleShare = 0.20;  ///< the rest (5 %) are divergent
/// serve_open's closed-loop hybrid segment: passes over the worker's seeds.
constexpr index_t kServeHybridPasses = 2;

/// Work counts of one worker process: run-level counts split over the
/// run's workers.
struct Sizes {
  index_t train_samples = 2;   ///< LBM training trajectories (0.6 t_c)
  index_t max_windows = 160;   ///< training windows
  index_t epochs = 1;
  index_t trajectories = 6;    ///< held-out LBM trajectories per run
  index_t offsets = 4;         ///< seed windows taken from each trajectory
  index_t offset_stride = 7;   ///< snapshots between those windows
  index_t min_requests = 0;    ///< hybrid requests (>= 100 per run)
  index_t trace_passes = 4;    ///< traced run: passes over the seeds
  double rate = 4.0;           ///< phase A arrivals per second
  index_t sessions = 0;        ///< phase A arrivals (>= 100 per run)
  index_t burst_sessions = 32;
  index_t burst_steps = 32;
  index_t bursts = 4;
  index_t serve_checks = 3;    ///< served sessions re-run solo
};

Sizes sizes_for(const Options& o) {
  Sizes s;
  const auto per_worker = [&o](index_t total) {
    return (total + o.procs - 1) / o.procs;
  };
  s.min_requests = per_worker(100);
  if (o.tiny) {
    s.train_samples = 1;
    s.max_windows = 16;
    s.epochs = 1;
    s.trajectories = 3;
    s.offsets = 2;
    s.trace_passes = 1;
    s.rate = 100.0;
    s.burst_sessions = 4;
    s.burst_steps = 16;
    s.serve_checks = 2;
  }
  s.sessions = std::max(per_worker(100),
                        static_cast<index_t>(0.6 * s.rate * o.seconds));
  return s;
}

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

data::GeneratorConfig generator(std::uint64_t seed, double t_end) {
  data::GeneratorConfig g;
  g.grid = kGrid;
  g.u0 = 0.05;
  g.reynolds = kReynolds;
  g.dt_tc = kDtSnap;
  g.t_end_tc = t_end;
  g.burn_in_tc = 0.25;
  g.seed = seed;
  return g;
}

core::History history_at(const data::SnapshotSeries& series, index_t first) {
  core::History history;
  const index_t frame = series.height() * series.width();
  for (index_t s = first; s < first + kCin; ++s) {
    core::FieldSnapshot snap;
    snap.t = kDtSnap * static_cast<double>(s);
    snap.u1 = TensorD({series.height(), series.width()});
    snap.u2 = TensorD({series.height(), series.width()});
    for (index_t i = 0; i < frame; ++i) {
      snap.u1[i] = series.u1[s * frame + i];
      snap.u2[i] = series.u2[s * frame + i];
    }
    history.push_back(std::move(snap));
  }
  return history;
}

std::unique_ptr<ns::NsSolver> make_solver() {
  ns::NsConfig cfg;
  cfg.n = kGrid;
  cfg.viscosity = 1.0 / kReynolds;
  cfg.dt = kDtSnap / 10.0;
  return std::make_unique<ns::SpectralNsSolver>(cfg);
}

bool same_bytes(const std::vector<core::FieldSnapshot>& a,
                const std::vector<core::FieldSnapshot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::memcmp(&a[k].t, &b[k].t, sizeof(double)) != 0) return false;
    if (a[k].u1.size() != b[k].u1.size() || a[k].u2.size() != b[k].u2.size()) {
      return false;
    }
    const auto bytes = static_cast<std::size_t>(a[k].u1.size()) *
                       sizeof(double);
    if (std::memcmp(a[k].u1.data(), b[k].u1.data(), bytes) != 0 ||
        std::memcmp(a[k].u2.data(), b[k].u2.data(), bytes) != 0) {
      return false;
    }
  }
  return true;
}

/// 64-bit hash of a trajectory's bytes (times and both velocity fields):
/// repeats are compared by it, so no trajectory needs to be kept.
std::uint64_t trajectory_hash(const std::vector<core::FieldSnapshot>& traj) {
  std::uint64_t h = traj.size();
  const auto feed = [&h](const double* p, index_t n) {
    for (index_t i = 0; i < n; ++i) {
      std::uint64_t word = 0;
      std::memcpy(&word, p + i, sizeof(word));
      h = mix(h ^ word);
    }
  };
  for (const core::FieldSnapshot& snap : traj) {
    feed(&snap.t, 1);
    feed(snap.u1.data(), snap.u1.size());
    feed(snap.u2.data(), snap.u2.size());
  }
  return h;
}

bool all_finite(const std::vector<core::FieldSnapshot>& traj) {
  for (const core::FieldSnapshot& s : traj) {
    for (index_t i = 0; i < s.u1.size(); ++i) {
      if (!std::isfinite(s.u1[i]) || !std::isfinite(s.u2[i])) return false;
    }
  }
  return true;
}

/// ‖a − ref‖ / ‖ref‖ over both velocity components.
double rel_l2(const core::FieldSnapshot& a, const core::FieldSnapshot& ref) {
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < ref.u1.size(); ++i) {
    const double d1 = a.u1[i] - ref.u1[i];
    const double d2 = a.u2[i] - ref.u2[i];
    num += d1 * d1 + d2 * d2;
    den += ref.u1[i] * ref.u1[i] + ref.u2[i] * ref.u2[i];
  }
  return std::sqrt(num / std::max(den, 1e-300));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return serve::nearest_rank_percentile(v, p);
}

/// Counter / span readings the checks need outside the obs JSON snapshots.
std::int64_t counter(const char* name) { return obs::counter(name).value(); }

// --- setup -----------------------------------------------------------------

struct Setup {
  std::unique_ptr<fno::Fno> model;
  analysis::Normalizer norm;
  std::vector<core::History> seeds;  ///< this worker's held-out seeds
  double energy_min = 0.0;
  double energy_max = 0.0;
  double enstrophy_max = 0.0;
};

/// Data generation and training, timed into report values. The held-out
/// seeds are the benchmark's inputs: their LBM trajectories come from the
/// workload seed, split across the run's workers by trajectory.
Setup build_setup(const Options& o, const Sizes& sz, Report& report) {
  Setup s;
  const auto t0 = Clock::now();
  const data::TurbulenceDataset train = data::generate_ensemble(
      generator(kTrainSeed, 0.6), sz.train_samples);
  const double t_end =
      kDtSnap * static_cast<double>(kCin - 1 +
                                    (sz.offsets - 1) * sz.offset_stride);
  const data::GeneratorConfig heldout = generator(mix(o.seed), t_end);
  for (index_t j = o.proc; j < sz.trajectories; j += o.procs) {
    const data::SnapshotSeries series =
        data::generate_sample(heldout, static_cast<std::uint64_t>(j));
    for (index_t k = 0; k < sz.offsets; ++k) {
      s.seeds.push_back(history_at(series, k * sz.offset_stride));
    }
  }
  TURB_CHECK_MSG(!s.seeds.empty(), "worker " << o.proc << " of " << o.procs
                                              << " got no held-out seeds");
  const double datagen_s = since(t0);

  const auto t1 = Clock::now();
  fno::FnoConfig cfg;
  cfg.in_channels = kCin;
  cfg.out_channels = kCout;
  cfg.width = 12;
  cfg.n_layers = 4;
  cfg.n_modes = {12, 12};
  cfg.lifting_channels = 64;
  cfg.projection_channels = 64;
  data::WindowSpec spec;
  spec.in_channels = kCin;
  spec.out_channels = kCout;
  spec.max_windows = sz.max_windows;
  TensorF inputs, targets;
  data::make_velocity_channel_windows(train, spec, inputs, targets);
  s.norm = analysis::Normalizer::fit(inputs);
  s.norm.apply(inputs);
  s.norm.apply(targets);
  Rng rng(3);
  s.model = std::make_unique<fno::Fno>(cfg, rng);
  nn::DataLoader loader(inputs, targets, 2, true, 5);
  fno::TrainConfig tc;
  tc.epochs = sz.epochs;
  tc.lr = 3e-3;
  const fno::TrainResult trained = fno::train_fno(*s.model, loader, tc);
  const double train_s = since(t1);

  // Guard bands for served sessions, from the training trajectories: wide
  // enough that a healthy surrogate never trips them.
  double e_lo = 1e300, e_hi = 0.0, z_hi = 0.0;
  for (const data::SnapshotSeries& series : train.samples) {
    for (index_t k = 0; k + kCin <= series.steps(); k += kCin) {
      for (const core::FieldSnapshot& snap : history_at(series, k)) {
        const core::SnapshotMetrics m = core::compute_metrics(snap);
        e_lo = std::min(e_lo, m.kinetic_energy);
        e_hi = std::max(e_hi, m.kinetic_energy);
        z_hi = std::max(z_hi, m.enstrophy);
      }
    }
  }
  s.energy_min = 0.1 * e_lo;
  s.energy_max = 10.0 * e_hi;
  s.enstrophy_max = 10.0 * z_hi;

  report.values["setup.datagen_s"] = datagen_s;
  report.values["setup.train_s"] = train_s;
  report.values["train.final_loss"] = trained.final_train_loss();
  report.values["seeds"] = static_cast<double>(s.seeds.size());
  return s;
}

/// Normalised (2, C_in, H, W) model input of one seed window.
TensorF model_input(const Setup& s, const core::History& seed) {
  TensorF x({2, kCin, kGrid, kGrid});
  const index_t frame = kGrid * kGrid;
  for (index_t c = 0; c < kCin; ++c) {
    const core::FieldSnapshot& snap = seed[static_cast<std::size_t>(c)];
    for (index_t i = 0; i < frame; ++i) {
      x[(0 * kCin + c) * frame + i] = static_cast<float>(snap.u1[i]);
      x[(1 * kCin + c) * frame + i] = static_cast<float>(snap.u2[i]);
    }
  }
  s.norm.apply(x);
  return x;
}

/// Engine output against the training forward on the first seed window,
/// within the 1e-4 relative bound DESIGN.md documents.
void check_engine(Setup& s, infer::InferenceEngine& engine, Report& report) {
  const TensorF x = model_input(s, s.seeds.front());
  const TensorF ref = s.model->forward(x);
  TensorF y;
  engine.forward(x, y);
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(y[i]) - static_cast<double>(ref[i]);
    num += d * d;
    den += static_cast<double>(ref[i]) * static_cast<double>(ref[i]);
  }
  const double err = std::sqrt(num / std::max(den, 1e-300));
  report.check("engine_matches_training_forward",
               std::isfinite(err) && err <= 1e-4,
               "rel_l2 " + std::to_string(err));
}

/// Per-entry flop model of one engine forward, so the traced run can turn
/// the GEMM flop counter into total computed flops (GEMM + spectral
/// contraction + nominal unpruned rfft/irfft).
void record_flop_model(fno::Fno& model, Report& report) {
  const fno::FnoConfig& c = model.config();
  const double s = static_cast<double>(kGrid * kGrid);
  const double gemm = 2.0 * s *
                      static_cast<double>(
                          c.in_channels * c.lifting_channels +
                          c.lifting_channels * c.width +
                          c.n_layers * c.width * c.width +
                          c.width * c.projection_channels +
                          c.projection_channels * c.out_channels);
  const double contraction = 8.0 * static_cast<double>(
                                       c.n_layers * model.conv(0).kept_modes() *
                                       c.width * c.width);
  const double fft = static_cast<double>(c.n_layers * c.width) * 2.0 * 2.5 *
                     s * std::log2(s);
  report.values["model.gemm_flops_per_entry"] = gemm;
  report.values["model.other_flops_per_entry"] = contraction + fft;
}

// --- hybrid requests -------------------------------------------------------

struct HybridSegment {
  std::vector<double> hybrid_s;  ///< per request
  std::vector<double> pde_s;
  std::vector<double> rel_l2;    ///< per seed (first pass)
  index_t requests = 0;
  index_t mismatches = 0;        ///< repeats not bitwise equal to the first
  index_t nonfinite = 0;
};

/// Closed loop over the worker's seeds, round robin. Every request rolls a
/// seed forward with the hybrid scheduler; the pure-PDE reference of the
/// same seed runs on each seed's first request (for rel-L2) and on every
/// kReferenceEvery-th request after that. Runs until `budget` seconds have
/// passed, `min_requests` were made and every seed ran twice.
HybridSegment run_hybrid(core::Propagator& fno, core::Propagator& pde,
                         const std::vector<core::History>& seeds,
                         double budget, index_t min_requests) {
  core::HybridConfig hc;
  hc.fno_snapshots = kFnoWindow;
  hc.pde_snapshots = kPdeWindow;
  core::HybridScheduler scheduler(fno, pde, hc);
  std::vector<core::RolloutRequest> pde_requests(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    pde_requests[i].seed = seeds[i];
    pde_requests[i].steps = kHorizon;
  }
  // Hashes of each seed's first hybrid and reference trajectories.
  std::vector<std::uint64_t> first_hybrid(seeds.size());
  std::vector<std::uint64_t> first_pde(seeds.size());

  HybridSegment seg;
  const auto n_seeds = static_cast<index_t>(seeds.size());
  const auto t0 = Clock::now();
  while (seg.requests < min_requests || seg.requests < 2 * n_seeds ||
         since(t0) < budget) {
    const auto i = static_cast<std::size_t>(seg.requests % n_seeds);
    const bool first = seg.requests < n_seeds;
    const bool with_reference = first || seg.requests % kReferenceEvery == 0;
    Tracer::get().set_request(seg.requests);
    core::RolloutResult hybrid, reference;
    const auto a = Clock::now();
    {
      ScopedSpan span("core/hybrid_run");
      hybrid = scheduler.run(seeds[i], kHorizon);
    }
    seg.hybrid_s.push_back(since(a));
    if (with_reference) {
      const auto b = Clock::now();
      {
        ScopedSpan span("core/pde_run");
        reference = core::run_rollout(pde, pde_requests[i]);
      }
      seg.pde_s.push_back(since(b));
    }

    if (!all_finite(hybrid.trajectory) || !all_finite(reference.trajectory)) {
      ++seg.nonfinite;
    }
    if (first) {
      const auto at = static_cast<std::size_t>(kCheckpoint - 1);
      seg.rel_l2.push_back(
          rel_l2(hybrid.trajectory[at], reference.trajectory[at]));
      first_hybrid[i] = trajectory_hash(hybrid.trajectory);
      first_pde[i] = trajectory_hash(reference.trajectory);
    } else if (trajectory_hash(hybrid.trajectory) != first_hybrid[i] ||
               (with_reference &&
                trajectory_hash(reference.trajectory) != first_pde[i])) {
      ++seg.mismatches;
    }
    ++seg.requests;
  }
  Tracer::get().set_request(-1);
  return seg;
}

/// Per-request wall times (run.py turns them into wall time per t_c: total
/// wall over total t_c), rel-L2 per seed, and the checks.
void record_hybrid(const HybridSegment& seg, Report& report) {
  for (const double t : seg.hybrid_s) report.add("hybrid_s", t);
  for (const double t : seg.pde_s) report.add("pde_s", t);
  report.values["request_tc"] = kDtSnap * static_cast<double>(kHorizon);
  report.values["request_snapshots"] = static_cast<double>(kHorizon);
  for (const double e : seg.rel_l2) report.add("rel_l2_hybrid", e);
  report.check("hybrid_repeats_bitwise_identical", seg.mismatches == 0,
               std::to_string(seg.mismatches) + " of " +
                   std::to_string(seg.requests) + " requests differ");
  report.check("hybrid_outputs_finite", seg.nonfinite == 0,
               std::to_string(seg.nonfinite) + " requests not finite");
  report.attempted += seg.requests;
}

/// On hybrid_tc a request is one closed-loop 1 t_c advance, so its latency
/// is its service time.
void record_latency(const HybridSegment& seg, Report& report) {
  for (const double t : seg.hybrid_s) report.add("latency_ms", t * 1e3);
}

// --- traced phase ----------------------------------------------------------

struct Phase {
  Clock::time_point t0;
  Usage usage;
  CpuTicks ticks;
};

/// Starts the timed (or traced) phase. Its peak resident memory excludes
/// set-up and warm-up: freed heap goes back to the kernel and the
/// high-water mark restarts from the resident size here.
Phase phase_begin(Report& report) {
  report.check("peak_rss_reset", reset_peak_rss(),
               "/proc/self/clear_refs not writable");
  return {Clock::now(), read_usage(), read_cpu_ticks()};
}

/// Host and process figures over the timed (or traced) phase.
void phase_end(const Phase& p, int threads, Report& report) {
  const double wall = since(p.t0);
  const Usage u = read_usage();
  report.values["peak_rss_mb"] = peak_rss_mb();
  report.values["host.steal_frac"] = steal_fraction(p.ticks, read_cpu_ticks());
  report.values["util.cpu_utilization"] =
      (u.cpu_seconds - p.usage.cpu_seconds) / (wall * threads);
  report.values["util.vol_ctx_switches_per_s"] =
      static_cast<double>(u.voluntary_switches - p.usage.voluntary_switches) /
      wall;
  report.values["util.invol_ctx_switches_per_s"] =
      static_cast<double>(u.involuntary_switches -
                          p.usage.involuntary_switches) /
      wall;
}

void begin_traced(Report& report) {
  report.obs_before = obs::to_json();
  obs::set_enabled(true);
  Tracer::get().set_enabled(true);
  set_alloc_counting(true);
}

void end_traced(Report& report) {
  set_alloc_counting(false);
  Tracer::get().set_enabled(false);
  obs::set_enabled(false);
  report.obs_after = obs::to_json();
}

bool named(const SpanRecord& r, const char* name) {
  return std::strcmp(r.name, name) == 0;
}

/// Figures of the spans named `name` that a core/hybrid_run span encloses
/// directly: the hybrid's own windows, not those of the pure-PDE references
/// or of the serving fallback, which use the same propagator wrappers.
struct WindowStats {
  std::vector<double> durations;
  double total = 0.0;
  double ns_step = 0.0;  ///< ns/step time inside these windows
};

WindowStats hybrid_windows(const Tracer& t, const char* name) {
  const std::vector<SpanRecord>& rs = t.records();
  const auto parent_named = [&rs](const SpanRecord& r, const char* parent) {
    return r.parent >= 0 &&
           named(rs[static_cast<std::size_t>(r.parent)], parent);
  };
  WindowStats w;
  for (const SpanRecord& r : rs) {
    if (named(r, name) && parent_named(r, "core/hybrid_run")) {
      w.durations.push_back(r.end - r.start);
      w.total += r.end - r.start;
    } else if (named(r, "ns/step") && parent_named(r, name) &&
               parent_named(rs[static_cast<std::size_t>(r.parent)],
                            "core/hybrid_run")) {
      w.ns_step += r.end - r.start;
    }
  }
  return w;
}

/// core / ns figures from the recorded spans. A hybrid run's wall time
/// splits into its FNO windows, its PDE windows and the scheduler's self
/// time (metrics, guard, history marshalling).
void record_span_layers(const TracedNsSolver& ns, Report& report) {
  const Tracer& t = Tracer::get();
  const double run = t.total("core/hybrid_run");
  const WindowStats fno = hybrid_windows(t, "core/fno_window");
  const WindowStats pde = hybrid_windows(t, "core/pde_window");
  report.values["core.fno_window_ms_p50"] =
      percentile(fno.durations, 0.5) * 1e3;
  report.values["core.pde_window_ms_p50"] =
      percentile(pde.durations, 0.5) * 1e3;
  if (run > 0.0) {
    report.values["core.fno_share"] = fno.total / run;
    report.values["core.pde_share"] = pde.total / run;
    report.values["core.self_share"] = t.self_total("core/hybrid_run") / run;
  }
  if (ns.steps() > 0) {
    report.values["ns.allocs_per_step"] =
        static_cast<double>(ns.step_allocs()) / static_cast<double>(ns.steps());
  }
  // Leray projection, vorticity set-up and velocity readback: everything
  // in the hybrid's PDE windows outside the solver steps, per snapshot.
  if (!pde.durations.empty()) {
    report.values["ns.io_ms"] =
        (pde.total - pde.ns_step) * 1e3 /
        static_cast<double>(pde.durations.size() * kPdeWindow);
  }
}

void check_steady_state(std::int64_t plan_misses_warm, Report& report) {
  const std::int64_t allocs = counter("infer/steady_state_allocs");
  report.check("infer_steady_state_allocs_zero", allocs == 0,
               std::to_string(allocs) + " steady-state allocations");
  const std::int64_t misses = counter("fft/plan_cache_misses");
  report.check("fft_plan_cache_warm", misses == plan_misses_warm,
               std::to_string(misses - plan_misses_warm) +
                   " plan-cache misses after warm-up");
}

/// Propagators every workload builds. pde_span runs a second PDE
/// propagator over a TracedNsSolver and records a span per window (a no-op
/// while the recorder is off).
struct Propagators {
  core::FnoPropagator fno;
  core::PdePropagator pde;
  TracedNsSolver* traced_ns;
  core::PdePropagator pde_traced;
  TracedPropagator pde_span;

  Propagators(Setup& s, std::unique_ptr<TracedNsSolver> ns)
      : fno(*s.model, s.norm, kDtSnap),
        pde(make_solver(), kDtSnap),
        traced_ns(ns.get()),
        pde_traced(std::move(ns), kDtSnap),
        pde_span(pde_traced, "core/pde_window") {
    fno.engine().plan({2, kCin, kGrid, kGrid});
  }
};

void hybrid_workload(const Options& o, const Sizes& sz, int threads,
                     Report& report) {
  const auto t_setup = Clock::now();
  Setup s = build_setup(o, sz, report);
  const auto t_plan = Clock::now();
  Propagators p(s, std::make_unique<TracedNsSolver>(make_solver()));
  report.values["setup.plan_s"] = since(t_plan);
  report.values["setup_s"] = since(t_setup);
  report.values["infer.arena_mb"] =
      static_cast<double>(p.fno.engine().arena_bytes()) / (1024.0 * 1024.0);
  record_flop_model(*s.model, report);
  check_engine(s, p.fno.engine(), report);

  // Self-test hook: a primary that turns to NaN after three snapshots.
  core::DivergentPropagator divergent(p.fno, 3);
  core::Propagator& fno =
      o.inject_divergence ? static_cast<core::Propagator&>(divergent) : p.fno;

  // Warm-up: first touches of every buffer, plan caches, solver tables.
  (void)run_hybrid(p.fno, p.pde, {s.seeds.front()}, 0.0, 1);
  const std::int64_t plan_misses_warm = counter("fft/plan_cache_misses");

  if (!o.trace) {
    const Phase ph = phase_begin(report);
    const HybridSegment seg =
        run_hybrid(fno, p.pde, s.seeds, o.seconds, sz.min_requests);
    phase_end(ph, threads, report);
    record_hybrid(seg, report);
    record_latency(seg, report);
  } else {
    // A fixed amount of work untraced (the overhead baseline), then the
    // same work traced.
    const auto n = static_cast<index_t>(sz.trace_passes * s.seeds.size());
    const HybridSegment plain = run_hybrid(fno, p.pde, s.seeds, 0.0, n);
    TracedPropagator fno_span(fno, "core/fno_window");
    begin_traced(report);
    const Phase ph = phase_begin(report);
    const HybridSegment traced =
        run_hybrid(fno_span, p.pde_span, s.seeds, 0.0, n);
    phase_end(ph, threads, report);
    end_traced(report);
    record_hybrid(traced, report);
    record_latency(traced, report);
    report.values["trace.overhead_frac"] =
        percentile(traced.hybrid_s, 0.5) / percentile(plain.hybrid_s, 0.5) -
        1.0;
    record_span_layers(*p.traced_ns, report);
  }
  check_steady_state(plan_misses_warm, report);
}

// --- serving ---------------------------------------------------------------

enum class Kind { plain, ensemble, divergent };

struct Arrival {
  double due = 0.0;  ///< seconds after the phase starts
  Kind kind = Kind::plain;
  index_t steps = 0;
  std::size_t seed = 0;
};

/// `count` Poisson arrivals at `rate` per second. The session mix is exact
/// (kPlainShare / kEnsembleShare / divergent; plain sessions of one to
/// kPlainWindows windows in equal numbers) and only its order is drawn from
/// the seed, so seeds differ in arrival times and order, not in the amount
/// of work.
std::vector<Arrival> poisson_arrivals(std::uint64_t seed, double rate,
                                      index_t count, std::size_t n_seeds) {
  Rng rng(seed);
  std::vector<Arrival> out(static_cast<std::size_t>(count));
  const auto n_plain = static_cast<index_t>(
      std::llround(kPlainShare * static_cast<double>(count)));
  const auto n_ensemble = static_cast<index_t>(
      std::llround(kEnsembleShare * static_cast<double>(count)));
  for (index_t n = 0; n < count; ++n) {
    Arrival& a = out[static_cast<std::size_t>(n)];
    a.kind = n < n_plain                ? Kind::plain
             : n < n_plain + n_ensemble ? Kind::ensemble
                                        : Kind::divergent;
    // Divergent sessions need a second window to trip in.
    const index_t windows = a.kind == Kind::plain      ? 1 + n % kPlainWindows
                            : a.kind == Kind::ensemble ? kEnsembleWindows
                                                       : 2;
    a.steps = windows * kServeWindow;
  }
  for (std::size_t i = out.size(); i > 1; --i) {  // Fisher–Yates
    std::swap(out[i - 1], out[static_cast<std::size_t>(rng.uniform_int(i))]);
  }
  double t = 0.0;
  for (Arrival& a : out) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    a.due = t;
    a.seed = static_cast<std::size_t>(rng.uniform_int(n_seeds));
  }
  return out;
}

core::RolloutRequest make_request(const Setup& s, const Arrival& a,
                                  std::uint64_t tag) {
  core::RolloutRequest req;
  req.seed = s.seeds[a.seed];
  req.steps = a.steps;
  req.window = kServeWindow;
  req.guard.enabled = true;
  req.guard.energy_min = s.energy_min;
  req.guard.energy_max = s.energy_max;
  req.guard.enstrophy_max = s.enstrophy_max;
  req.guard.cooldown_snapshots = 0;  // a tripped session ends on the PDE
  if (a.kind == Kind::ensemble) {
    req.ensemble_k = kEnsembleK;
    req.ensemble_seed = tag;
    req.guard.spread_calibrated = true;
  }
  return req;
}

struct ServeCheck {
  core::RolloutRequest request;
  core::RolloutResult served;
  bool divergent = false;
};

struct OpenLoop {
  std::vector<double> latency_ms;     ///< due → completion
  std::vector<double> queue_wait_ms;  ///< due → first scheduling round
  std::vector<double> gen_late_ms;    ///< due → submit
  std::vector<double> submit_us;
  std::vector<double> round_ms;
  std::int64_t round_allocs = 0;
  index_t sent = 0, rejected = 0, completed = 0, degraded = 0;
  double wall = 0.0;
  std::vector<ServeCheck> checks;
};

/// Phase A: submit each arrival at its due time (never earlier), step the
/// server whenever it holds work, and time each session from when it was
/// due, so a stall also delays every session due during it.
OpenLoop run_open_loop(serve::RolloutServer& server, core::FnoPropagator& fno,
                       core::Propagator& fallback, const Setup& s,
                       const std::vector<Arrival>& arrivals,
                       index_t max_checks) {
  struct Live {
    double due = 0.0;
    double first_round = -1.0;
    std::size_t check = SIZE_MAX;
  };
  OpenLoop out;
  std::map<serve::SessionId, Live> live;
  std::map<serve::SessionId, std::unique_ptr<core::DivergentPropagator>>
      divergent;
  std::vector<serve::SessionId> fresh;
  bool divergent_checked = false;
  std::size_t next = 0;
  const auto t0 = Clock::now();
  while (next < arrivals.size() || !live.empty()) {
    while (next < arrivals.size() && arrivals[next].due <= since(t0)) {
      const Arrival& a = arrivals[next++];
      core::RolloutRequest req = make_request(s, a, next);
      const bool want_check =
          (a.kind == Kind::plain &&
           static_cast<index_t>(out.checks.size()) < max_checks) ||
          (a.kind == Kind::divergent && !divergent_checked &&
           max_checks > 0);
      core::RolloutRequest copy = want_check ? req : core::RolloutRequest{};
      std::unique_ptr<core::DivergentPropagator> prop;
      if (a.kind == Kind::divergent) {
        prop = std::make_unique<core::DivergentPropagator>(
            fno, kHealthySnapshots);
      }
      const double ts = since(t0);
      serve::Admission adm;
      {
        ScopedSpan span("serve/submit");
        adm = prop ? server.submit_with_propagator(std::move(req), *prop,
                                                   &fallback)
                   : server.submit(std::move(req));
      }
      const double te = since(t0);
      out.submit_us.push_back((te - ts) * 1e6);
      out.gen_late_ms.push_back((ts - a.due) * 1e3);
      ++out.sent;
      if (!adm.admitted) {
        ++out.rejected;
        continue;
      }
      Live l;
      l.due = a.due;
      if (want_check) {
        divergent_checked = divergent_checked || prop != nullptr;
        l.check = out.checks.size();
        out.checks.push_back({std::move(copy), {}, prop != nullptr});
      }
      if (prop) divergent.emplace(adm.id, std::move(prop));
      live.emplace(adm.id, l);
      fresh.push_back(adm.id);
    }
    if (live.empty()) {
      if (next < arrivals.size()) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrivals[next].due)));
      }
      continue;
    }
    const double rs = since(t0);
    for (const serve::SessionId id : fresh) live.at(id).first_round = rs;
    fresh.clear();
    const std::int64_t allocs_before = alloc_count();
    {
      ScopedSpan span("serve/step");
      server.step();
    }
    out.round_allocs += alloc_count() - allocs_before;
    const double re = since(t0);
    out.round_ms.push_back((re - rs) * 1e3);
    for (const serve::SessionId id : server.finished()) {
      const Live l = live.at(id);
      core::RolloutResult result = server.take(id);
      out.latency_ms.push_back((re - l.due) * 1e3);
      out.queue_wait_ms.push_back((l.first_round - l.due) * 1e3);
      if (result.guard_trips() > 0) ++out.degraded;
      if (l.check != SIZE_MAX) out.checks[l.check].served = std::move(result);
      live.erase(id);
      divergent.erase(id);
      ++out.completed;
    }
  }
  out.wall = since(t0);
  return out;
}

struct Bursts {
  std::vector<double> wall_s;  ///< per burst
  index_t sent = 0, completed = 0;
};

/// Phase B: closed saturating bursts of plain sessions, submitted at once
/// and drained; throughput counts every snapshot the sessions receive.
Bursts run_bursts(serve::RolloutServer& server, const Setup& s,
                  const Sizes& sz, std::uint64_t seed, index_t bursts) {
  Bursts out;
  Rng rng(seed);
  for (index_t b = 0; b < bursts; ++b) {
    std::vector<core::RolloutRequest> requests;
    for (index_t i = 0; i < sz.burst_sessions; ++i) {
      Arrival a;
      a.steps = sz.burst_steps;
      a.seed = static_cast<std::size_t>(rng.uniform_int(s.seeds.size()));
      requests.push_back(make_request(s, a, 0));
    }
    std::vector<core::RolloutResult> results;
    results.reserve(requests.size());
    const auto t0 = Clock::now();
    for (core::RolloutRequest& req : requests) {
      (void)server.submit(std::move(req));
    }
    while (server.step()) {
    }
    for (const serve::SessionId id : server.finished()) {
      results.push_back(server.take(id));
    }
    const double wall = since(t0);
    out.sent += sz.burst_sessions;
    out.completed += static_cast<index_t>(results.size());
    out.wall_s.push_back(wall);
  }
  return out;
}

/// Served sessions against solo run_rollout of the same request.
void check_served(const OpenLoop& open, core::FnoPropagator& fno,
                  core::Propagator& pde, Report& report) {
  index_t mismatched = 0;
  for (const ServeCheck& c : open.checks) {
    core::DivergentPropagator solo_primary(fno, kHealthySnapshots);
    core::Propagator& primary =
        c.divergent ? static_cast<core::Propagator&>(solo_primary) : fno;
    const core::RolloutResult solo =
        core::run_rollout(primary, c.request, &pde);
    if (!same_bytes(solo.trajectory, c.served.trajectory) ||
        solo.producer != c.served.producer) {
      ++mismatched;
    }
  }
  report.check("served_sessions_match_solo_rollouts",
               !open.checks.empty() && mismatched == 0,
               std::to_string(mismatched) + " of " +
                   std::to_string(open.checks.size()) + " differ");
}

void serve_workload(const Options& o, const Sizes& sz, int threads,
                    Report& report) {
  const auto t_setup = Clock::now();
  Setup s = build_setup(o, sz, report);
  const auto t_plan = Clock::now();
  Propagators p(s, std::make_unique<TracedNsSolver>(make_solver()));
  core::Propagator& fallback =
      o.trace ? static_cast<core::Propagator&>(p.pde_span) : p.pde;
  serve::ServeConfig sc;
  sc.max_sessions = 256;
  sc.queue_capacity = 1024;
  sc.batch_window = 16;
  serve::RolloutServer server(p.fno, &fallback, sc);
  // One planned engine per micro-batch width, so no timed round plans one.
  for (index_t k = 1; k <= sc.batch_window; ++k) {
    server.engine_pool().acquire(2 * k, kCin, kGrid, kGrid);
  }
  report.values["setup.plan_s"] = since(t_plan);
  report.values["setup_s"] = since(t_setup);
  report.values["infer.arena_mb"] =
      static_cast<double>(server.engine_pool().total_arena_bytes() +
                          p.fno.engine().arena_bytes()) /
      (1024.0 * 1024.0);
  record_flop_model(*s.model, report);
  check_engine(s, p.fno.engine(), report);

  // Warm-up: every session kind once, one burst, one hybrid request.
  (void)run_open_loop(server, p.fno, fallback, s,
                      {{0.0, Kind::plain, kServeWindow, 0},
                       {0.0, Kind::ensemble, kServeWindow, 0},
                       {0.0, Kind::divergent, 2 * kServeWindow, 0}},
                      0);
  (void)run_bursts(server, s, sz, 7, 1);
  (void)run_hybrid(p.fno, p.pde, {s.seeds.front()}, 0.0, 1);
  const std::int64_t plan_misses_warm = counter("fft/plan_cache_misses");

  const std::vector<Arrival> arrivals =
      poisson_arrivals(mix(o.seed ^ (0xA5A5ull + static_cast<unsigned>(o.proc))),
                       sz.rate, sz.sessions, s.seeds.size());
  const std::uint64_t burst_seed = mix(o.seed + 17 + o.proc);
  Bursts plain;
  if (o.trace) {
    plain = run_bursts(server, s, sz, burst_seed, sz.bursts);
    begin_traced(report);
  }
  const Phase ph = phase_begin(report);
  const OpenLoop open =
      run_open_loop(server, p.fno, fallback, s, arrivals, sz.serve_checks);
  const Bursts bursts = run_bursts(server, s, sz, burst_seed, sz.bursts);
  TracedPropagator fno_span(p.fno, "core/fno_window");
  core::Propagator& fno_h =
      o.trace ? static_cast<core::Propagator&>(fno_span) : p.fno;
  const HybridSegment seg = run_hybrid(
      fno_h, fallback, s.seeds, 0.0,
      static_cast<index_t>(kServeHybridPasses * s.seeds.size()));
  phase_end(ph, threads, report);
  if (o.trace) end_traced(report);

  for (const double v : open.latency_ms) report.add("latency_ms", v);
  for (const double v : bursts.wall_s) report.add("burst_s", v);
  report.values["burst_snapshots"] =
      static_cast<double>(sz.burst_sessions * sz.burst_steps);
  record_hybrid(seg, report);

  const index_t unfinished = open.sent - open.rejected - open.completed;
  report.values["serve.phase_a.sent"] = static_cast<double>(open.sent);
  report.values["serve.phase_a.succeeded"] =
      static_cast<double>(open.completed);
  report.values["serve.phase_a.failed"] =
      static_cast<double>(open.rejected + unfinished);
  report.values["serve.phase_b.sent"] = static_cast<double>(bursts.sent);
  report.values["serve.phase_b.succeeded"] =
      static_cast<double>(bursts.completed);
  report.values["serve.phase_b.failed"] =
      static_cast<double>(bursts.sent - bursts.completed);
  report.values["serve.degraded_sessions"] =
      static_cast<double>(open.degraded);
  double busy = 0.0;
  for (const double ms : open.round_ms) busy += ms * 1e-3;
  report.values["serve.phase_a.busy_frac"] = busy / open.wall;
  report.attempted += open.sent + bursts.sent;
  report.failed += open.rejected + unfinished + bursts.sent - bursts.completed;
  check_served(open, p.fno, p.pde, report);

  if (o.trace) {
    report.values["serve.round_ms_p50"] = percentile(open.round_ms, 0.5);
    report.values["serve.round_ms_p90"] = percentile(open.round_ms, 0.9);
    report.values["serve.queue_wait_ms_p50"] =
        percentile(open.queue_wait_ms, 0.5);
    report.values["serve.queue_wait_ms_p90"] =
        percentile(open.queue_wait_ms, 0.9);
    report.values["serve.submit_us_p50"] = percentile(open.submit_us, 0.5);
    report.values["serve.gen_late_ms_p90"] =
        percentile(open.gen_late_ms, 0.9);
    report.values["serve.allocs_per_round"] =
        open.round_ms.empty() ? 0.0
                              : static_cast<double>(open.round_allocs) /
                                    static_cast<double>(open.round_ms.size());
    // Throughput ratio of the same bursts untraced vs traced.
    report.values["trace.overhead_frac"] =
        percentile(bursts.wall_s, 0.5) / percentile(plain.wall_s, 0.5) -
        1.0;
    record_span_layers(*p.traced_ns, report);
  }
  check_steady_state(plan_misses_warm, report);
}

}  // namespace

int workload_threads(const std::string& workload) {
  return workload == "hybrid_tc" || workload == "serve_open" ? 1 : 0;
}

void run_workload(const Options& o, Report& report) {
  const Sizes sz = sizes_for(o);
  const int threads = workload_threads(o.workload);
  if (o.workload == "serve_open") {
    serve_workload(o, sz, threads, report);
  } else {
    hybrid_workload(o, sz, threads, report);
  }
}

}  // namespace perfbench
