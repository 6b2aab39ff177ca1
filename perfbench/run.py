#!/usr/bin/env python3
"""Repository benchmark: hybrid FNO-PDE time per t_c and rollout serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hybrid_tc --seed 1 --seconds 40 --trace 0

Builds the worker (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench on first use, then runs WORKERS worker processes at
once, each pinned to its own vCPU (WORKERS + 1 usable vCPUs are required).
Each worker sets up the surrogate itself (LBM data, training, engine
planning) and measures its share of the run; their records are pooled here.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.
Exits non-zero when a correctness check fails. README.md describes the
workloads, the metrics and the noise sources.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("hybrid_tc", "serve_open")  # both single-threaded
# Separate processes: set-up is timed several times per run (setup_s is
# their median) and the timed work is spread over several vCPUs.
WORKERS = 3
RUN_DEADLINE_S = 165.0  # worker time per run, after the build

END_TO_END = [
    ("s_per_tc_hybrid", "s/t_c"),
    ("s_per_tc_pde", "s/t_c"),
    ("rel_l2_hybrid", "ratio"),
    ("snapshots_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("ns.step_ms", "ms"),
    ("ns.io_ms", "ms"),
    ("ns.allocs_per_step", "count"),
    ("infer.forward_ms", "ms"),
    ("infer.lift_share", "ratio"),
    ("infer.spectral_share", "ratio"),
    ("infer.project_share", "ratio"),
    ("infer.forward_calls", "count"),
    ("infer.gflops", "GFLOP/s"),
    ("infer.arena_mb", "MB"),
    ("infer.steady_state_allocs", "count"),
    ("serve.round_ms_p50", "ms"),
    ("serve.round_ms_p90", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.batch_occupancy", "count"),
    ("serve.batches", "count"),
    ("serve.engine_pool_misses", "count"),
    ("serve.degraded_sessions", "count"),
    ("serve.gen_late_ms_p90", "ms"),
    ("serve.allocs_per_round", "count"),
    ("core.fno_window_ms_p50", "ms"),
    ("core.pde_window_ms_p50", "ms"),
    ("core.fno_share", "ratio"),
    ("core.pde_share", "ratio"),
    ("core.self_share", "ratio"),
    ("core.guard_trips", "count"),
    ("core.fallback_snapshots", "count"),
    ("fft.r2c_ms", "ms"),
    ("fft.c2r_ms", "ms"),
    ("fft.lines_total", "count"),
    ("fft.pruned_frac", "ratio"),
    ("fft.plan_cache_misses", "count"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_gflop", "GFLOP"),
    ("util.cpu_utilization", "ratio"),
    ("util.vol_ctx_switches_per_s", "1/s"),
    ("util.invol_ctx_switches_per_s", "1/s"),
    ("setup.datagen_s", "s"),
    ("setup.train_s", "s"),
    ("setup.plan_s", "s"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

MIN_LATENCY_SAMPLES = 100  # p90 needs at least 10 samples beyond it


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the worker; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "-j", jobs]
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "w") as log:
        for _ in range(2):
            ok = True
            if not (BUILD / "CMakeCache.txt").exists():
                ok = subprocess.run(configure, stdout=log, env=env,
                                    stderr=subprocess.STDOUT).returncode == 0
            if ok:
                ok = subprocess.run(compile_, stdout=log, env=env,
                                    stderr=subprocess.STDOUT).returncode == 0
            if ok:
                return BUILD / "perfbench"
            # A cache from another source tree: configure afresh once.
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
    tail = log_path.read_text(errors="replace").splitlines()[-20:]
    print("\n".join(tail), file=sys.stderr)
    fail(f"build failed (log: {log_path})")


def worker_cpus():
    """One vCPU per concurrent single-thread worker, leaving one for this
    process and the system; exits without a result when there are fewer."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < WORKERS + 1:
        fail(f"needs {WORKERS + 1} usable vCPUs, this process may use "
             f"{len(cpus)}")
    return cpus[-WORKERS:]


def run_workers(binary, cpus, args, extra):
    commands = []
    for proc, cpu in enumerate(cpus):
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--proc", str(proc),
               "--procs", str(WORKERS), "--cpu", str(cpu)] + extra
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / f"{args.workload}-{args.seed}-{proc}.jsonl")]
        commands.append(cmd)

    deadline = time.monotonic() + RUN_DEADLINE_S
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
             for cmd in commands]
    outputs = []
    try:
        for p in procs:
            out, _ = p.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
            outputs.append((p.returncode, out))
    except subprocess.TimeoutExpired:
        print("perfbench: workers exceeded the run deadline", file=sys.stderr)
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()
        sys.exit(1)
    reports = []
    for proc, (code, out) in enumerate(outputs):
        if code != 0:
            print(f"perfbench: worker {proc} exited with {code}",
                  file=sys.stderr)
            sys.exit(1)
        reports.append(json.loads(out.strip().splitlines()[-1]))
    return reports


def pooled(reports, key):
    """Samples of every worker; JSON null (a non-finite value) becomes NaN."""
    return [math.nan if v is None else v
            for r in reports for v in r["samples"].get(key, [])]


def nearest_rank(values, p):
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p * len(ordered))))
    return ordered[rank - 1]


def end_to_end(reports):
    """Metric -> (value, sample count). Costs are totals over the run (all
    workers pooled): medians flip between the host's fast and slow modes,
    totals do not (README.md, "Noise")."""
    v0 = reports[0]["values"]
    hybrid = pooled(reports, "hybrid_s")
    pde = pooled(reports, "pde_s")
    latency = pooled(reports, "latency_ms")
    rel_l2 = pooled(reports, "rel_l2_hybrid")
    out = {
        "s_per_tc_hybrid": (sum(hybrid) / (len(hybrid) * v0["request_tc"]),
                            len(hybrid)),
        "s_per_tc_pde": (sum(pde) / (len(pde) * v0["request_tc"]), len(pde)),
        "rel_l2_hybrid": (statistics.median(rel_l2), len(rel_l2)),
        "latency_p50_ms": (statistics.median(latency), len(latency)),
        "latency_p90_ms": (nearest_rank(latency, 0.9), len(latency)),
    }
    bursts = pooled(reports, "burst_s")
    if bursts:  # serve_open: phase B bursts
        out["snapshots_per_s"] = (
            len(bursts) * v0["burst_snapshots"] / sum(bursts), len(bursts))
    else:  # hybrid workloads: the closed-loop client's snapshots
        out["snapshots_per_s"] = (
            len(hybrid) * v0["request_snapshots"] / sum(hybrid), len(hybrid))
    for key in ("setup_s", "peak_rss_mb"):
        out[key] = (statistics.median(r["values"][key] for r in reports),
                    len(reports))
    return out


def layer_metrics(report):
    """Per-layer figures of one traced worker: its own span figures plus
    deltas of the program's obs registry over the traced phase."""
    # JSON null (a non-finite worker value) reads as 0.
    v = {k: (0.0 if x is None else x) for k, x in report["values"].items()}
    before, after = report["obs_before"], report["obs_after"]

    def counter(name):
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    def span(name):
        a = after["spans"].get(name, {"count": 0, "total_seconds": 0.0})
        b = before["spans"].get(name, {"count": 0, "total_seconds": 0.0})
        return a["count"] - b["count"], a["total_seconds"] - b["total_seconds"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["ns.step_ms"] = ratio(span("ns/step")[1], counter("ns/steps")) * 1e3
    m["ns.io_ms"] = v.get("ns.io_ms", 0.0)
    m["ns.allocs_per_step"] = v.get("ns.allocs_per_step", 0.0)

    fwd_calls, fwd_time = span("nn/infer_forward")
    m["infer.forward_ms"] = ratio(fwd_time, fwd_calls) * 1e3
    for stage in ("lift", "spectral", "project"):
        m[f"infer.{stage}_share"] = ratio(span(f"nn/infer_{stage}")[1],
                                          fwd_time)
    m["infer.forward_calls"] = counter("infer/forward_calls")
    gemm_flops = counter("tensor/gemm_flops")
    entries = gemm_flops / v["model.gemm_flops_per_entry"]
    flops = gemm_flops + entries * v["model.other_flops_per_entry"]
    m["infer.gflops"] = ratio(flops, fwd_time) / 1e9
    m["infer.arena_mb"] = v["infer.arena_mb"]
    m["infer.steady_state_allocs"] = after["counters"].get(
        "infer/steady_state_allocs", 0)

    for key in ("serve.round_ms_p50", "serve.round_ms_p90",
                "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p90",
                "serve.submit_us_p50", "serve.degraded_sessions",
                "serve.gen_late_ms_p90", "serve.allocs_per_round"):
        m[key] = v.get(key, 0.0)
    batches = counter("serve/batches")
    m["serve.batch_occupancy"] = ratio(counter("serve/batched_streams"),
                                       batches)
    m["serve.batches"] = batches
    m["serve.engine_pool_misses"] = counter("serve/engine_pool_misses")

    for key in ("core.fno_window_ms_p50", "core.pde_window_ms_p50",
                "core.fno_share", "core.pde_share", "core.self_share"):
        m[key] = v.get(key, 0.0)
    m["core.guard_trips"] = counter("robust/guard_trips")
    m["core.fallback_snapshots"] = counter("robust/fallback_snapshots")

    for direction in ("r2c", "c2r"):
        calls, total = span(f"fft/{direction}")
        m[f"fft.{direction}_ms"] = ratio(total, calls) * 1e3
    lines = counter("fft/lines_total")
    m["fft.lines_total"] = lines
    m["fft.pruned_frac"] = ratio(counter("fft/pruned_lines_skipped"), lines)
    m["fft.plan_cache_misses"] = counter("fft/plan_cache_misses")
    m["tensor.gemm_calls"] = counter("tensor/gemm_calls")
    m["tensor.gemm_gflop"] = gemm_flops / 1e9

    for key in ("util.cpu_utilization", "util.vol_ctx_switches_per_s",
                "util.invol_ctx_switches_per_s", "setup.datagen_s",
                "setup.train_s", "setup.plan_s", "host.steal_frac",
                "trace.overhead_frac"):
        m[key] = v.get(key, 0.0)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (perfbench/selftest.py)")
    parser.add_argument("--inject-divergence", action="store_true",
                        help="self-test: diverging FNO primary in the hybrid")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    cpus = worker_cpus()
    binary = build()
    extra = []
    if args.tiny:
        extra.append("--tiny")
    if args.inject_divergence:
        extra.append("--inject-divergence")
    reports = run_workers(binary, cpus, args, extra)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [f"{c['name']} (worker {i}): {c['detail']}"
                for i, r in enumerate(reports) for c in r["checks"]
                if not c["ok"]]

    first = reports[0]
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} workers={WORKERS}")
    print(f"# host nproc={first['values']['host.nproc']:.0f} "
          f"isa={first['text']['isa']} march={first['text']['march']} "
          f"threads={first['values']['threads']:.0f} steal_frac="
          + ",".join(f"{r['values'].get('host.steal_frac', 0):.3f}"
                     for r in reports))
    print(f"# surrogate train loss {first['values']['train.final_loss']:.4g}, "
          f"held-out seeds per worker "
          + ",".join(f"{r['values']['seeds']:.0f}" for r in reports))
    for phase in ("phase_a", "phase_b"):
        key = f"serve.{phase}"
        if f"{key}.sent" in first["values"]:
            sent, ok, bad = (sum(r["values"][f"{key}.{k}"] for r in reports)
                             for k in ("sent", "succeeded", "failed"))
            print(f"# serve {phase}: sent {sent:.0f} succeeded {ok:.0f} "
                  f"failed {bad:.0f}")
    if "serve.phase_a.busy_frac" in first["values"]:
        print("# serve phase_a busy_frac " + " ".join(
            f"{r['values']['serve.phase_a.busy_frac']:.3f}" for r in reports))

    if args.trace:
        per_worker = [layer_metrics(r) for r in reports]
        metrics = {name: (statistics.median(w[name] for w in per_worker),
                          len(per_worker), unit)
                   for name, unit in PER_LAYER}
    else:
        values = end_to_end(reports)
        metrics = {name: (*values[name], unit) for name, unit in END_TO_END}
        latency_n = metrics["latency_p50_ms"][1]
        attempted += 1
        if latency_n < MIN_LATENCY_SAMPLES:
            failed += 1
            problems.append(f"only {latency_n} latency samples; p90 needs "
                            f"{MIN_LATENCY_SAMPLES}")
        for name, (value, count, unit) in metrics.items():
            attempted += 1
            if not (math.isfinite(value) and value > 0 and count > 0):
                failed += 1
                problems.append(f"{name} = {value} over {count} samples")
                # The result line stays valid JSON; the run is failed.
                metrics[name] = (0.0, count, unit)

    for name, (value, count, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={count})")
    if not args.trace:
        for key, label in (("hybrid_s", "s_per_tc_hybrid"),
                           ("pde_s", "s_per_tc_pde")):
            print(f"# per worker {label}: " + " ".join(
                f"{statistics.fmean(r['samples'][key]) / r['values']['request_tc']:.4g}"
                for r in reports))
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"(failed {failed} of {attempted} attempted)")
    for problem in problems:
        print(f"# FAILED {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, count, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
