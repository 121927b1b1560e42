"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload open_close --seed 1 --seconds 30 --trace 0

Each repetition runs ``worker.py`` in a fresh process on the same seed,
so every repetition has its own memory high-water mark and no state
leaks between them.  Repetition ``k`` runs with ``PYTHONHASHSEED=k``,
so string-hash order differs between repetitions and the determinism
check below also covers results that would depend on it.  Repetitions
continue until ``--seconds`` have passed and at least ``MIN_REPS``
repetitions (and, untraced, ``MIN_TICKS`` ticks) have run.  The run
fails, printing no numbers, if any repetition's correctness checks fail
or if the deterministic metrics differ between repetitions.

With ``--trace 0`` the result carries the end-to-end metrics: medians
over repetitions, with tick percentiles over the timeline's ticks, each
tick taken at its median over the repetitions; host times are scaled to
a nominal host speed (see ``worker.py``).  With ``--trace 1`` traced and
untraced repetitions alternate; the result carries the per-layer metrics
(medians over the traced repetitions) and the tracing overhead.  A table
of every metric with its unit comes first; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS
from workloads import TIMELINES, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_REPS = 3
#: Tick percentiles are taken over at least this many ticks per run.
MIN_TICKS = 1000
#: The whole run must end within this many seconds.
DEADLINE_S = 170.0

#: End-to-end metric -> unit; host timings, then the seed-determined ones.
HOST_METRICS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "tick_p50_ms": "ms",
    "tick_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
OUTCOME_METRICS = {
    "success_ratio": "ratio",
    "admit_latency_p99_ticks": "ticks",
    "hitless_ratio": "ratio",
    "links_touched_p95": "links",
    "availability": "ratio",
    "recovery_p99_ticks": "ticks",
    "delivered_ratio": "ratio",
    "packet_p99_cycles": "cycles",
}

#: Per-layer metric suffix -> unit.  Every layer reports the first three.
_LAYER_COMMON = {"busy_s": "s", "calls": "count", "share": "ratio"}
LAYER_METRICS = {
    **{f"{layer}.{key}": unit for layer in LAYERS for key, unit in _LAYER_COMMON.items()},
    "serve.tick_self_ms_p50": "ms",
    "serve.tick_growth": "ratio",
    "serve.queue_peak_depth": "count",
    "serve.shed_ratio": "ratio",
    "core.batch.conferences_per_call": "count",
    "core.batch.us_per_conference": "us",
    "core.admission.leave_us": "us",
    "core.churn.ops": "count",
    "core.churn.fallback_ratio": "ratio",
    "core.healing.transitions": "count",
    "core.healing.ms_per_transition": "ms",
    "protect.plans_built": "count",
    "protect.plan_hit_ratio": "ratio",
    "obs.observe_calls_per_tick": "count",
    "cluster.tick_self_ms_p50": "ms",
    "cluster.failover_ms": "ms",
    "cluster.scale_up_ms": "ms",
    "cluster.migrations": "count",
    "perfmodel.cycles_per_s": "1/s",
    "perfmodel.flits_per_s": "1/s",
    "harness.busy_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.ref_loop_ms": "ms",
}


class RunFailed(Exception):
    """A repetition failed or the repetitions disagree: no result."""


def repetition(workload: str, seed: int, trace: int, hash_seed: int, deadline: float) -> dict:
    """Run one repetition in a fresh process and parse its report."""
    env = dict(
        os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"a repetition did not finish within the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["problems"]:
        raise RunFailed("correctness checks failed: " + "; ".join(report["problems"]))
    return report


def run_repetitions(args) -> list[dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    min_reps = MIN_REPS + 1 if args.trace else MIN_REPS
    min_ticks = 0 if args.trace else MIN_TICKS
    reports: list[dict] = []
    ticks = 0
    while len(reports) < min_reps or ticks < min_ticks or time.monotonic() - start < args.seconds:
        spent = time.monotonic() - start
        if reports and spent * (len(reports) + 1) / len(reports) > DEADLINE_S:
            raise RunFailed(f"the next repetition would end after the {DEADLINE_S:.0f} s budget")
        # Traced and untraced repetitions alternate, starting traced.
        trace = 1 if args.trace and len(reports) % 2 == 0 else 0
        reports.append(repetition(args.workload, args.seed, trace, len(reports), deadline))
        ticks += len(reports[-1]["tick_s"])
    first = reports[0]
    for report in reports[1:]:
        if (
            (report["deterministic"], report["digest"], len(report["tick_s"]))
            != (first["deterministic"], first["digest"], len(first["tick_s"]))
        ):
            raise RunFailed(
                "deterministic metrics differ between repetitions of one seed: "
                f"{first['deterministic']} vs {report['deterministic']}"
            )
    return reports


def end_to_end(reports: list[dict]) -> dict[str, float]:
    # Every repetition replays the same ticks.  A tick's time is its median
    # over the repetitions, so a burst of load from other tenants of the
    # host, which lands on a few ticks of one repetition, does not decide
    # the tail.
    ticks = [statistics.median(times) for times in zip(*(r["tick_s"] for r in reports))]
    host = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "requests_per_s": statistics.median(r["requests_per_s"] for r in reports),
        "tick_p50_ms": statistics.median(ticks) * 1e3,
        "tick_p99_ms": percentile(ticks, 0.99) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    return {**host, **reports[0]["deterministic"]}


def per_layer(reports: list[dict]) -> dict[str, float]:
    traced = [r for r in reports if r["trace"]]
    bare = [r for r in reports if not r["trace"]]
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    out["harness.busy_s"] = statistics.median(r["harness_s"] for r in traced)
    out["host.ref_loop_ms"] = statistics.median(r["ref_loop_ms"] for r in reports)
    out["trace.overhead_ratio"] = (
        statistics.median(r["requests_per_s"] for r in bare)
        / statistics.median(r["requests_per_s"] for r in traced)
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(TIMELINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    try:
        reports = run_repetitions(args)
    except RunFailed as exc:
        print(f"benchmark: run failed: {exc}", file=sys.stderr)
        return 1
    units = LAYER_METRICS if args.trace else {**HOST_METRICS, **OUTCOME_METRICS}
    values = per_layer(reports) if args.trace else end_to_end(reports)
    if set(values) != set(units):
        mismatch = sorted(set(values) ^ set(units))
        print(f"benchmark: metric set mismatch: {mismatch}", file=sys.stderr)
        return 1
    n_ticks = sum(len(r["tick_s"]) for r in reports)
    print(
        f"{args.workload} seed {args.seed}: {len(reports)} repetitions in fresh processes, "
        f"{n_ticks} timed ticks, checks passed"
    )
    for name in units:
        print(f"  {name:34s} {values[name]:14.6g} {units[name]}")
    if not args.trace:
        raw = {k: statistics.median(r["raw"][k] for r in reports) for k in reports[0]["raw"]}
        print("  unscaled host times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    if not args.trace and reports[0]["no_samples"]:
        empty = ", ".join(reports[0]["no_samples"])
        print(f"  no samples on this workload, reported as 1: {empty}")
    refs = [r["ref_loop_ms"] for r in reports]
    print(
        f"  host reference loop per repetition: {', '.join(f'{x:.3f}' for x in refs)} ms; "
        f"harness host time per repetition: "
        + ", ".join(f"{r['harness_s']:.3f}" for r in reports) + " s"
    )
    timed = [r for r in reports if not r["trace"]] or reports
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in timed),
        "failed": sum(r["failed"] for r in timed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
