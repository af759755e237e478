#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload train-sync|fleet-tcp|serve-rec \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/workloads (and the src/
libraries it links) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in its own process under a hard
timeout, checks its metrics against the ones BENCHMARK.json lists for the
mode, and prints its provenance line and, last, its result line. A traced
run (--trace 1) also writes a Chrome trace next to the build; a per-layer
metric whose layer is not on the workload's timed path is reported as 0.
fleet-tcp is not among BENCHMARK.json's workloads (a traced train-sync run
includes it, see BENCHMARK.md) but can be run by name.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-sync", "fleet-tcp", "serve-rec")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/CMakeLists.txt under {ROOT}: run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench_workloads", "-j", BUILD_JOBS],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed ({code}): {' '.join(cmd)}")
    return build_dir


def expected_metrics(trace):
    """name -> unit, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    expected = expected_metrics(args.trace)

    build_dir = build()
    cmd = [str(build_dir / "perfbench_workloads"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir / f"trace-{args.workload}-{args.seed}.json")]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code != 0:
        fail(f"{args.workload} exited with {code}")
    lines = [line for line in out.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("workload runner printed no result")
    provenance, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    metrics = result["metrics"]
    wrong = {n: m["unit"] for n, m in metrics.items() if expected.get(n) != m["unit"]}
    if wrong:
        fail(f"metrics not in BENCHMARK.json with these units: {sorted(wrong.items())}")
    missing = [n for n in expected if n not in metrics]
    if missing and not args.trace:
        fail(f"end-to-end metrics missing: {missing}")
    result["metrics"] = {n: metrics.get(n, {"value": 0, "unit": u}) for n, u in expected.items()}
    print(json.dumps(provenance))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
