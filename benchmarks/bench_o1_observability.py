"""Observability O1 — the live health stack must be close to free.

The SLO engine's contract is two-sided: bit-transparent (an
instrumented run and a bare run of the same seed produce *equal*
reports — asserted here before any timing counts) and cheap (turning
the live health additions — SLO evaluator, flight recorder ring, and
a live scrape endpoint — on over the existing tracer + metrics
telemetry costs less than :data:`OVERHEAD_TARGET` of admission
throughput).  The telemetry itself is measured against the bare run
too: tracer + metrics cost less than :data:`TELEMETRY_TARGET` over no
observability at all, with :data:`TELEMETRY_CEIL` as the asserted
ceiling.

Three arms run the same seeded churn-with-faults workload:

* ``bare`` — no observability at all;
* ``telemetry`` — tracer + metrics registry (the pre-existing stack);
* ``live`` — telemetry plus SLO evaluator, flight recorder and a
  running exposition endpoint.

Arms are interleaved and the best wall time of each is kept so machine
drift hits all equally; stack construction and endpoint start/stop
happen outside the timed region (endpoint shutdown waits out a poll
interval, which is lifecycle cost, not per-tick cost).  Measured
overhead lands in the repo-root ``BENCH_o1.json`` and
``benchmarks/results/o1_observability.*``; the in-test bound is
deliberately looser (shared CI machines jitter) — the artifact records
the real number.

Run directly (``python benchmarks/bench_o1_observability.py``) or via
pytest.
"""

import gc
import json
import time
from pathlib import Path

from _common import emit

from repro.core.healing import RetryPolicy
from repro.obs import (
    ExpositionServer,
    FlightRecorder,
    MetricsRegistry,
    SLOEvaluator,
    Tracer,
)
from repro.serve.bench import run_serve_bench
from repro.sim.faults import FaultProcessConfig

N_PORTS = 64
REPS = 6
#: Headline budget recorded in the artifact; the test asserts a looser
#: ceiling so machine jitter cannot fail CI.
OVERHEAD_TARGET = 0.05
OVERHEAD_CEIL = 0.25
#: Telemetry (tracer + metrics) against the bare run.  Set from the
#: measurement after per-stage occupancy telemetry became one bulk
#: histogram add per stage: +20% to +40% on a 2-CPU host (the per-link
#: loop before it cost +85%).  The ceiling is the asserted bound.
TELEMETRY_TARGET = 0.40
TELEMETRY_CEIL = 0.75
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_o1.json"

WORKLOAD = dict(
    conferences=400,
    seed=0,
    arrival_rate=5.0,
    mean_size=3.5,
    mean_hold_ticks=12.0,
    resize_prob=0.25,
    queue_capacity=128,
    retry=RetryPolicy(max_retries=5, base_delay=1.0),
    fault_process=FaultProcessConfig(
        mean_time_to_failure=800.0, mean_time_to_repair=4.0
    ),
)


def _timed_bench(**extra):
    """Run the workload and return (report, workload wall seconds).

    Collects garbage first so a collection triggered by the previous
    arm's retained telemetry doesn't land inside this arm's window.
    """
    gc.collect()
    t0 = time.perf_counter()
    report = run_serve_bench(N_PORTS, **extra, **WORKLOAD)
    return report, time.perf_counter() - t0


def run_bare():
    report, wall = _timed_bench()
    return report, wall, None


def run_telemetry():
    """The pre-existing observability: trace stream + metrics registry."""
    report, wall = _timed_bench(tracer=Tracer(), metrics=MetricsRegistry())
    return report, wall, None


def run_live():
    """Telemetry plus the live health additions: SLO, flight, endpoint."""
    tracer = Tracer()
    registry = MetricsRegistry()
    slo = SLOEvaluator()
    flight = FlightRecorder()
    flight.watch(tracer)
    flight.attach_slo(slo)
    with ExpositionServer(metrics=registry, slo=slo):
        report, wall = _timed_bench(
            tracer=tracer, metrics=registry, slo=slo, flight=flight
        )
    return report, wall, (tracer, slo, flight)


ARMS = {"bare": run_bare, "telemetry": run_telemetry, "live": run_live}


def measure():
    walls = dict.fromkeys(ARMS, float("inf"))
    reports = {}
    live_stack = None
    for _ in range(REPS):  # interleave arms so drift hits all equally
        for arm, run in ARMS.items():
            reports[arm], wall, stack = run()
            walls[arm] = min(walls[arm], wall)
            if stack is not None:
                live_stack = stack
    return reports, walls, live_stack


def write_artifacts():
    reports, walls, (tracer, slo, flight) = measure()

    # Transparency first, speed second: the timing only means anything
    # because every instrumented run is *equal*, not statistically close.
    assert reports["telemetry"] == reports["bare"]
    assert reports["live"] == reports["bare"]
    # ...and the stack actually observed the run (a dead tracer would
    # make the differential vacuous).
    assert tracer.emitted > 0
    assert slo.last is not None
    assert flight.seen > 0

    admitted = reports["bare"].service["admitted"]
    overhead = walls["live"] / walls["telemetry"] - 1.0
    telemetry_vs_bare = walls["telemetry"] / walls["bare"] - 1.0
    rows = [
        {
            "arm": arm,
            "wall_s": round(walls[arm], 4),
            "admitted_per_s": round(admitted / walls[arm]),
            "vs_bare": f"{(walls[arm] / walls['bare'] - 1.0) * 100:+.1f}%",
        }
        for arm in ARMS
    ]
    emit(
        "o1_observability",
        rows,
        title=(
            f"O1: live health stack overhead (N={N_PORTS}; live vs telemetry "
            f"{overhead * 100:+.1f}% against a {OVERHEAD_TARGET * 100:.0f}% budget, "
            f"telemetry vs bare {telemetry_vs_bare * 100:+.1f}% against "
            f"{TELEMETRY_TARGET * 100:.0f}%)"
        ),
    )
    payload = {
        "experiment": "o1_observability",
        "workload": {
            "n_ports": N_PORTS,
            "conferences": WORKLOAD["conferences"],
            "seed": WORKLOAD["seed"],
            "reps": REPS,
            "ticks": reports["bare"].ticks,
            "fault_transitions": reports["bare"].fault_transitions,
        },
        "arms": rows,
        "admission_throughput_overhead": overhead,
        "overhead_target": OVERHEAD_TARGET,
        "meets_target": overhead <= OVERHEAD_TARGET,
        "telemetry_vs_bare": telemetry_vs_bare,
        "telemetry_target": TELEMETRY_TARGET,
        "meets_telemetry_target": telemetry_vs_bare <= TELEMETRY_TARGET,
        "bit_transparent": True,
        "slo_state": slo.state,
        "flight_events_seen": flight.seen,
        "note": (
            "overhead = live wall over telemetry wall - 1, telemetry_vs_bare "
            f"= telemetry wall over bare wall - 1, best of {REPS} interleaved "
            "reps each; report equality across all three arms is asserted "
            "before timing counts"
        ),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert overhead <= OVERHEAD_CEIL, (
        f"live health stack cost {overhead * 100:.1f}% of admission "
        f"throughput — above the {OVERHEAD_CEIL * 100:.0f}% ceiling "
        f"(budget {OVERHEAD_TARGET * 100:.0f}%)"
    )
    assert telemetry_vs_bare <= TELEMETRY_CEIL, (
        f"tracer + metrics cost {telemetry_vs_bare * 100:.1f}% over the bare "
        f"run — above the {TELEMETRY_CEIL * 100:.0f}% ceiling "
        f"(target {TELEMETRY_TARGET * 100:.0f}%)"
    )
    return payload


def test_o1_observability_overhead(benchmark):
    benchmark(lambda: None)
    write_artifacts()


if __name__ == "__main__":
    print(json.dumps(write_artifacts(), indent=2, sort_keys=True))
