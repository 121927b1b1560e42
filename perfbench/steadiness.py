"""Steadiness evidence: run one workload back to back on several seeds.

    python3 perfbench/steadiness.py --workload open_close --seeds 101-110

Runs ``run.py`` once per seed, one after another, for the
``run_seconds`` of ``BENCHMARK.json``, and prints a Markdown table with
each end-to-end metric's median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  Each run's host reference
loop times and unscaled host times are listed too, so a slow host window
shows beside the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,2,3")
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    refs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        refs.append(
            "; ".join(
                line.strip() for line in lines
                if "reference loop" in line or "unscaled host times" in line
            )
        )
        for name, metric in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"### {args.workload}, seeds {args.seeds}\n")
    print("| metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|")
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else 0.0
        row = f"{median:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {bounds.get(name)}"
        print(f"| {name} | {row} |")
    print()
    for seed, ref in zip(_seeds(args.seeds), refs):
        print(f"- seed {seed}: {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
