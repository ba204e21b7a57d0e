"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10                  # every workload, --trace 0
    python3 perfbench/spread.py --workloads table-check --seeds 1-5
    python3 perfbench/spread.py --seeds 1 --trace 1           # per-layer table
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline-e2e.json

Spread is (Q3 - Q1) / median, quartiles from statistics.quantiles(n=4).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, WORKLOAD_NAMES


def seeds(text: str) -> list[int]:
    """"1-10" or "1,1,2": ranges and single seeds, comma-separated."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="all")
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    names = WORKLOAD_NAMES if args.workloads == "all" else args.workloads.split(",")
    report = {}
    for w in names:
        results = [run(w, s, args.seconds, args.trace) for s in args.seeds]
        metrics = {m: summarize([r["metrics"][m]["value"] for r in results])
                   for m in results[0]["metrics"]}
        report[w] = {"seeds": args.seeds,
                     "correct": all(r["correct"] for r in results),
                     "attempted": sum(r["attempted"] for r in results),
                     "failed": sum(r["failed"] for r in results),
                     "units": {m: v["unit"] for m, v in results[0]["metrics"].items()},
                     "metrics": metrics}
        for m, s in metrics.items():
            extra = (f"  Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  spread {s['spread']:.3f}"
                     if "spread" in s else "")
            print(f"{w:13} {m:40} median {s['median']:.6g}{extra}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
