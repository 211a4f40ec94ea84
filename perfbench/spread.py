#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs `perfbench/run.py --trace 0` once per seed and workload, one run at a
time, and prints for every end-to-end metric the median of the runs and the
distance between their first and third quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json.  --out writes the runs and
the summary as JSON, for example as a point of perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for metric in BENCHMARK["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        summary[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "unit": metric["unit"],
            "spread": (q3 - q1) / median if median else float("nan"), "bound": metric["bound"],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    doc = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}", file=sys.stderr, flush=True)
        summary = summarize(runs)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"\n{workload}")
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "   <-- above a third of the bound"
            print(f"  {name:14s} median {s['median']:12.5g} {s['unit']:6s} spread {s['spread']:7.2%}"
                  f" bound {s['bound']:.0%}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
