#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

At tiny sizes (--tiny) it checks that every workload prints exactly the
metrics BENCHMARK.json names, each with its unit, in both the untraced and
the traced run; that a diverging FNO primary in hybrid_tc fails the
determinism / finiteness checks and exits non-zero instead of passing
silently; and that the benchmark fails cleanly, without a result line, in a
directory holding only BENCHMARK.json and the benchmark itself, and when it
may use fewer vCPUs than its workers need.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # keep the benchmark directory source-only
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's metric tables)


def benchmark(cwd, *args, cpus=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    limit = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, preexec_fn=limit)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done


def expect(condition, message, failures):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main():
    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == dict(run.END_TO_END),
           "run.py END_TO_END matches BENCHMARK.json end_to_end", failures)
    expect(declared[1] == dict(run.PER_LAYER),
           "run.py PER_LAYER matches BENCHMARK.json per_layer", failures)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "run.py workloads match BENCHMARK.json", failures)

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, result, done = benchmark(
                ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
            label = f"{workload} trace={trace}"
            expect(code == 0 and result is not None,
                   f"{label}: exits 0 with a result line", failures)
            if result is None:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{label}: result has exactly the four result keys",
                   failures)
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: correct, nothing failed", failures)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace],
                   f"{label}: every named metric with its unit", failures)

    code, result, _ = benchmark(
        ROOT, "--workload", "hybrid_tc", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--tiny", "--inject-divergence")
    expect(code != 0 and result is not None and result["correct"] is False
           and result["failed"] > 0,
           "hybrid_tc with a diverging primary fails its checks", failures)

    few = set(sorted(os.sched_getaffinity(0))[:run.WORKERS])
    code, result, _ = benchmark(
        ROOT, "--workload", "hybrid_tc", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--tiny", cpus=few)
    expect(code != 0 and result is None,
           f"on {len(few)} vCPUs: non-zero exit, no result", failures)

    bare = ROOT / ".bench_build" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = benchmark(
        bare, "--workload", "hybrid_tc", "--seed", "3", "--seconds", "1",
        "--trace", "0")
    expect(code != 0 and result is None,
           "without the library sources: non-zero exit, no result", failures)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
