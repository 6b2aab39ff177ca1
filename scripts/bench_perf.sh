#!/usr/bin/env bash
# Perf trajectory: build and run the perf harnesses, leaving
# BENCH_spectral.json and BENCH_inference.json at the repo root.
#
# bench_perf_train times the batched 2-D FFT, SpectralConv fwd/bwd with mode
# pruning on and off (full-transform baseline), the GEMM panel kernels, and
# a full fixture train step, and records the fft/pruned_lines_skipped /
# fft/lines_total coverage counters. Per-ISA rows (_scalar / _avx2) re-time
# the GEMM shapes and a raw c2c transform under each forced SIMD tier; the
# summary below reports the avx2-vs-scalar kernel speedups where measured.
#
# bench_perf_infer times the serving engine against the training-path
# forward at the paper shape (N=64, 12 modes) — the two are timed in
# interleaved batches and produce bitwise-identical outputs — plus rollout
# and batched-rollout cost per snapshot, and records the engine's
# zero-steady-state-allocation counters and arena footprint. Variant rows
# (12 and 20 modes) record per-variant forward cost and prepacked
# spectral-weight bytes.
#
# bench_perf_serve drives the concurrent serving layer at 1/64/512 sessions,
# recording throughput, p50/p99 session latency, and micro-batch occupancy;
# it self-verifies that concurrent sessions are bitwise identical to
# sequential rollouts at pool widths 1 and 4, and that an overfilled queue
# rejects with serve/admission_rejects. Variant rows re-run a 64-session
# level per forced ISA. Ensemble rows serve 16
# logical sessions at K ∈ {1,2,4,8} members each (member-snapshot throughput
# plus mean relative spread), and the ensemble reduction contract —
# identical members → exactly-zero variance, perturbed members → finite
# positive variance, every member stream accounted — gates the exit code.
#
# After the runs, a regression gate (scripts/bench_gate.py) compares the
# fresh numbers against the BENCH_*.json committed at HEAD and fails with a
# delta table if any shared throughput metric regressed by more than 10%.
#
# Usage: scripts/bench_perf.sh [build-dir]   (default: build)
#   BENCH_OUT=path           spectral output JSON (default: BENCH_spectral.json)
#   BENCH_INFER_OUT=path     inference output JSON (default: BENCH_inference.json)
#   BENCH_SERVE_OUT=path     serving output JSON (default: BENCH_serving.json)
#   TURBFNO_BENCH_ARGS=...   extra flags for all benches
#   BENCH_GATE=0             skip the regression gate (re-baselining)
#   BENCH_GATE_TOL=pct      regression tolerance in percent (default 10)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="${BENCH_OUT:-BENCH_spectral.json}"
INFER_OUT="${BENCH_INFER_OUT:-BENCH_inference.json}"
SERVE_OUT="${BENCH_SERVE_OUT:-BENCH_serving.json}"

cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" -j \
    --target bench_perf_train bench_perf_infer bench_perf_serve > /dev/null

# shellcheck disable=SC2086  # intentional word splitting of extra args
"$BUILD_DIR/bench/bench_perf_train" --out "$OUT" ${TURBFNO_BENCH_ARGS:-}

python3 - "$OUT" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, "unexpected schema version"
s = d["speedup"]["spectral_fwdbwd_pruned_vs_full"]
skipped = d["counters"]["fft/pruned_lines_skipped"]
total = d["counters"]["fft/lines_total"]
print(f"bench_perf: spectral fwd+bwd pruned-vs-full speedup {s:.2f}x, "
      f"pruning coverage {skipped}/{total} lines "
      f"({100.0 * skipped / max(total, 1):.1f}%)")
gemm = d["speedup"].get("gemm_nn_192cubed_avx2_vs_scalar")
c2c = d["speedup"].get("fft_c2c_n256_avx2_vs_scalar")
if gemm is not None and c2c is not None:
    print(f"bench_perf: avx2 vs scalar — gemm 192^3 {gemm:.2f}x, "
          f"c2c n=256 {c2c:.2f}x")
else:
    print("bench_perf: no avx2 on this host; per-ISA speedup rows omitted")
EOF

# shellcheck disable=SC2086
"$BUILD_DIR/bench/bench_perf_infer" --min-seconds 0.5 --out "$INFER_OUT" \
    ${TURBFNO_BENCH_ARGS:-}

python3 - "$INFER_OUT" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, "unexpected schema version"
s = d["speedup"]["engine_forward_vs_train"]
allocs = d["counters"]["infer/steady_state_allocs"]
assert allocs == 0, f"engine allocated in steady state ({allocs} allocations)"
print(f"bench_perf: engine forward {s:.2f}x vs training-path forward, "
      f"steady-state allocations {allocs}, "
      f"arena {d['gauges']['infer/arena_bytes'] / 1e6:.1f} MB")
isa = d["speedup"].get("engine_forward_avx2_vs_scalar")
if isa is not None:
    print(f"bench_perf: engine forward avx2 vs scalar {isa:.2f}x")
assert all(v["spectral_weight_bytes"] > 0 for v in d["variants"]), \
    "spectral_weight_bytes missing from variant rows"
EOF

# shellcheck disable=SC2086
"$BUILD_DIR/bench/bench_perf_serve" --out "$SERVE_OUT" \
    ${TURBFNO_BENCH_ARGS:-}

python3 - "$SERVE_OUT" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["version"] == 1, "unexpected schema version"
assert d["bitwise_identical_threads_1_4"] is True, \
    "concurrent serving diverged from sequential rollouts"
assert d["counters"]["infer/steady_state_allocs"] == 0, \
    "serving allocated in engine steady state"
assert d["saturation"]["rejected"] >= 1, "admission control never rejected"
top = max(d["levels"], key=lambda lvl: lvl["sessions"])
print(f"bench_perf: serving {top['sessions']} sessions at "
      f"{top['snapshots_per_s']:.0f} snapshots/s, "
      f"p50 {top['latency_p50_ms']:.1f} ms / p99 {top['latency_p99_ms']:.1f} ms, "
      f"batch occupancy {top['batch_occupancy_mean']:.1f}")
for v in d["variants"]:
    s = v["stats"]
    print(f"bench_perf: serve variant isa={v['isa']:<6} "
          f"{s['snapshots_per_s']:.0f} snapshots/s at {s['sessions']} sessions")
assert d["ensemble_contract"]["ok"] is True, "ensemble contract failed"
for e in d["ensembles"]:
    print(f"bench_perf: serve ensemble k={e['k']} "
          f"{e['member_snapshots_per_s']:.0f} member-snapshots/s "
          f"at {e['sessions']} sessions, "
          f"mean rel spread {e['mean_rel_spread']:.2e}")
EOF
# --- regression gate ---------------------------------------------------------
# Compare the fresh numbers against the baselines committed at HEAD: a >10%
# throughput regression (slower ns/op, fewer snapshots/s) on any metric
# present in both prints a delta table and fails the run. Metrics only on one
# side are ignored, so adding a bench never trips the gate. Disable with
# BENCH_GATE=0 (e.g. when re-baselining on different hardware); tolerance in
# percent via BENCH_GATE_TOL.
if [[ "${BENCH_GATE:-1}" == "1" ]]; then
  gate_fail=0
  for pair in "BENCH_spectral.json:$OUT" "BENCH_inference.json:$INFER_OUT" \
              "BENCH_serving.json:$SERVE_OUT"; do
    committed="${pair%%:*}"
    fresh="${pair#*:}"
    if baseline=$(git show "HEAD:$committed" 2> /dev/null); then
      printf '%s' "$baseline" \
        | python3 scripts/bench_gate.py - "$fresh" "${BENCH_GATE_TOL:-10}" \
        || gate_fail=1
    else
      echo "bench_perf: no committed baseline for $committed; gate skipped"
    fi
  done
  if [[ "$gate_fail" != "0" ]]; then
    echo "bench_perf: FAIL (throughput regression vs HEAD baselines;" \
         "BENCH_GATE=0 to re-baseline)"
    exit 1
  fi
fi

echo "bench_perf: OK ($OUT, $INFER_OUT, $SERVE_OUT)"
