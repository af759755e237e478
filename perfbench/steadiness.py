#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,...]
                                    [--trace 0|1] [--json PATH]

Runs perfbench/run.py once per (workload, seed) from the checkout root and
prints, per workload and metric, the median of the runs and the spread:
the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Every run must report correct = true.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="101,102,103,104,105,106,107,108,109,110")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--json", help="also write the raw values here")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    raw = {}
    status = 0
    for workload in args.workloads.split(","):
        values, bad = {}, []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                bad.append(f"seed {seed}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                bad.append(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
                print(proc.stderr, file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[workload] = values
        print(f"\n{workload}: {len(seeds)} seeds, {len(bad)} bad runs {bad}")
        print(f"  {'metric':34} {'median':>14} {'IQR/median':>11} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:34} {med:14.6g} {spread:11.4f} {bound if bound is not None else '':>6}{flag}")
        status |= bool(bad)
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))
    sys.exit(1 if status else 0)


if __name__ == "__main__":
    main()
