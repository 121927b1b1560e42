"""One benchmark repetition, in a process of its own.

Generates the workload's timeline from the seed, builds the service,
drives it tick by tick, checks the outcome and prints one JSON object:
host timings, the deterministic outcome metrics, check failures, and
(with ``--trace 1``) per-layer span totals.  ``run.py`` starts one
process per repetition; by hand, from the repository root::

    PYTHONPATH=src python3 perfbench/worker.py --workload open_close --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
from time import perf_counter

import numpy as np
from layers import LAYERS, install
from repro.cluster.controller import ClusterService, ShardState
from repro.core.healing import RetryPolicy
from repro.core.network import ConferenceNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEvaluator, default_serve_slos
from repro.perfmodel.model import PerfModelConfig
from repro.serve.service import FabricService
from repro.sim.faults import FaultTransition
from workloads import JOIN, LEAVE, OPEN, TIMELINES, percentile

#: Set-up is repeated this many times per repetition; the median is kept
#: and the service of the last one is driven.
SETUP_REPEATS = 11
#: At most this many extra ticks after the timeline ends, while submitted
#: requests (such as opens waiting on a retry backoff) are still open.
SETTLE_TICKS = 32
#: Service ports per shard / fabric.
FABRIC_PORTS = 256
SHARD_PORTS = 64
#: Host-speed reference: ``reference_s`` runs after every ``REF_EVERY_S``
#: of serving; host times are scaled to a host on which it takes
#: ``REF_NOMINAL_S`` (about its warm time on the development host).
REF_ITERATIONS = 800
REF_EVERY_S = 0.02
REF_NOMINAL_S = 0.0005
_REF_TABLE = {i: (i, str(i)) for i in range(20_000)}
#: Dilation of ``open_close``: the indirect binary cube's worst-case
#: conflict multiplicity ``2**floor(n/2)`` at N = 256, so no set of
#: port-disjoint conferences is ever refused for link capacity.
OPEN_CLOSE_DILATION = 16
#: Fabric of ``churn_faults``: the cube plus one stage, so every input has
#: two paths to every output and a single link fault is survivable.
CHURN_TOPOLOGY = "extra-stage-cube"


def reference_s() -> float:
    """Host time of a fixed dict, tuple and sort loop: a gauge of host speed.

    It reads a table of a few megabytes and allocates and sorts tuples, so
    it tracks the program's object-heavy work more closely than a pure
    arithmetic loop (see README.md, "Host-speed scaling").  The loop runs
    three times and the last pass is kept: the first two refill the caches
    after whatever the program did last, so the sample does not depend on
    how much memory the program touched.
    """
    _reference_pass()
    _reference_pass()
    return _reference_pass()


def _reference_pass() -> float:
    start = perf_counter()
    picked = {}
    for i in range(REF_ITERATIONS):
        key = (i * 7919) % len(_REF_TABLE)
        picked[key] = _REF_TABLE[key]
    total = 0
    for number, _ in sorted(picked.values(), key=lambda item: item[1]):
        total += number
    return perf_counter() - start


def host_scale(positions: list[int], samples: list[float], n: int) -> list[float]:
    """Per-step factors that scale host time to the nominal host speed.

    ``samples[k]`` is a reference-chunk time taken just before step
    ``positions[k]``; each step uses the median of the two samples before
    it and the two after it.
    """
    scale, k = [], 0
    for i in range(n):
        while k + 1 < len(positions) and positions[k + 1] <= i:
            k += 1
        near = samples[max(0, k - 1):k + 3]
        scale.append(REF_NOMINAL_S / statistics.median(near))
    return scale


def _stream(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _fault_timeline(seed: int, horizon: int):
    """One link transition per tick: a failure every even tick, repaired
    on the next (odd) tick.

    One link is down at a time, a fault the extra-stage cube survives, and
    each link fails about once per ``2 * links`` ticks.  Two links down at
    once can take a session down, and a join or leave on it then fails.  The
    last level, the wire into an output port, is left out: a fault there
    cuts its member off until repair, so every request on that conference
    would fail meanwhile.  A fixed cadence, rather than exponential up and
    down times, gives every tick the same amount of healing work, so the
    tick percentiles do not jump with the number of transitions a seed
    puts in a tick.
    """
    topology = ConferenceNetwork.build(CHURN_TOPOLOGY, FABRIC_PORTS).topology
    links = [
        (level, row) for level in range(1, topology.n_stages) for row in range(FABRIC_PORTS)
    ]
    rng = _stream(seed, 1)
    timeline = []
    for tick in range(0, horizon, 2):
        point = links[int(rng.integers(len(links)))]
        timeline.append(FaultTransition(tick + 0.5, point, True))
        timeline.append(FaultTransition(tick + 1.5, point, False))
    return tuple(timeline)


def _setup(workload: str, seed: int, faults):
    """Build the service under test (everything ``setup_s`` covers)."""
    if workload == "open_close":
        network = ConferenceNetwork.build(
            "indirect-binary-cube", FABRIC_PORTS, dilation=OPEN_CLOSE_DILATION
        )
        return FabricService(network, rng=_stream(seed, 2), retry=RetryPolicy())
    if workload == "churn_faults":
        network = ConferenceNetwork.build(CHURN_TOPOLOGY, FABRIC_PORTS, dilation=8)
        service = FabricService(
            network,
            rng=_stream(seed, 2),
            protection=1,
            metrics=MetricsRegistry(),
            slo=SLOEvaluator(default_serve_slos()),
        )
        service.attach_faults(faults)
        return service

    def factory(shard_id: str) -> ConferenceNetwork:
        return ConferenceNetwork.build(
            "indirect-binary-cube", SHARD_PORTS, dilation=SHARD_PORTS
        )

    return ClusterService(
        factory,
        shards=4,
        rng=_stream(seed, 2),
        capacity_model="buffered",
        perf=PerfModelConfig(lanes=2),
    )


def _fabrics(service, *, live_only: bool = False) -> list:
    """The FabricService instances behind ``service``."""
    if not isinstance(service, ClusterService):
        return [service]
    return [
        s.service for s in service.shards.values()
        if not live_only or s.state in (ShardState.ACTIVE, ShardState.DRAINING)
    ]


def drive(service, timeline):
    """Replay ``timeline`` against ``service``; returns the raw measurements.

    Only ``submit_*`` and ``tick`` (and the cluster drills) run inside the
    timed regions; callbacks are pre-built and only store the response.
    """
    responses: list = [None] * timeline.n_events
    callbacks = [(lambda r, i=i: responses.__setitem__(i, r)) for i in range(timeline.n_events)]
    session_ids: list = [None] * timeline.n_sessions
    open_event = timeline.open_event
    skipped = 0  # events of a session whose open had already failed
    tick_s: list[float] = []
    step_s: list[float] = []  # submit_* plus tick host time, per tick
    ref_at: list[int] = [0]
    ref_s: list[float] = [reference_s()]
    ref_total_s = 0.0  # host time of the reference runs inside the loop
    since_ref = 0.0
    serve_s = 0.0
    drill_ms: dict[str, float] = {}
    live_ticks = down_ticks = 0
    submit_open, submit_join = service.submit_open, service.submit_join
    submit_leave, submit_close, tick = service.submit_leave, service.submit_close, service.tick
    n_ticks = len(timeline.ticks)
    loop_start = perf_counter()
    for t in range(n_ticks + SETTLE_TICKS):
        if t >= n_ticks and responses.count(None) == skipped:
            break
        drill = timeline.drills.get(t)
        if drill is not None:
            start = perf_counter()
            if drill == "fail_shard":
                service.fail_shard("shard-1")
            else:
                service.scale_up()
            drill_ms[drill] = (perf_counter() - start) * 1e3
        submit_s = 0.0
        for event, kind, session, ports in timeline.ticks[t] if t < n_ticks else ():
            if kind == OPEN:
                start = perf_counter()
                session_ids[session] = submit_open(ports, on_complete=callbacks[event])
                submit_s += perf_counter() - start
                continue
            opened = responses[open_event[session]]
            if opened is not None and not opened.ok:
                skipped += 1
                continue
            sid = session_ids[session]
            start = perf_counter()
            if kind == JOIN:
                submit_join(sid, ports, on_complete=callbacks[event])
            elif kind == LEAVE:
                submit_leave(sid, ports, on_complete=callbacks[event])
            else:
                submit_close(sid, on_complete=callbacks[event])
            submit_s += perf_counter() - start
        start = perf_counter()
        tick()
        elapsed = perf_counter() - start
        tick_s.append(elapsed)
        step_s.append(submit_s + elapsed)
        since_ref += submit_s + elapsed
        if since_ref >= REF_EVERY_S:
            ref_at.append(t + 1)
            start = perf_counter()
            ref_s.append(reference_s())
            ref_total_s += perf_counter() - start
            since_ref = 0.0
        for fabric in _fabrics(service, live_only=True):
            counts = fabric.sessions.counts()
            live_ticks += counts["active"] + counts["degraded"]
            down_ticks += counts["down"]
    loop_s = perf_counter() - loop_start
    serve_s = sum(step_s)
    scale = host_scale(ref_at, ref_s, len(step_s))
    return {
        "responses": responses,
        "skipped": skipped,
        "tick_s": [x * f for x, f in zip(tick_s, scale)],
        "serve_s": sum(x * f for x, f in zip(step_s, scale)),
        "raw_tick_s": tick_s,
        "raw_serve_s": serve_s,
        "ref_s": ref_s,
        "harness_s": loop_s - serve_s - ref_total_s - sum(drill_ms.values()) / 1e3,
        "drill_ms": drill_ms,
        "live_ticks": live_ticks,
        "down_ticks": down_ticks,
    }


def outcome_metrics(service, timeline, run):
    """The metrics that are a pure function of the seed.

    Returns them with the names of those that had no samples, a digest
    of every response and the cluster delivery summary (or ``None``).
    """
    responses = [r for r in run["responses"] if r is not None]
    ok = sum(1 for r in responses if r.ok)
    open_latency = [r.latency for r in responses if r.status == "admitted"]
    resizes = [r for r in responses if r.status == "applied"]
    recovery = [s for f in _fabrics(service) for s in f.healing.stats.recovery_samples]
    metrics = {
        "success_ratio": ok / timeline.n_events,
        # A metric without samples reports 1 (README.md, "Metrics without
        # samples").
        "admit_latency_p99_ticks": percentile(open_latency, 0.99) if open_latency else 1.0,
        "hitless_ratio": (
            sum(1 for r in resizes if r.detail.get("hitless")) / len(resizes)
            if resizes else 1.0
        ),
        "links_touched_p95": (
            percentile([r.detail["links_reconfigured"] for r in resizes], 0.95)
            if resizes else 1.0
        ),
        "availability": run["live_ticks"] / max(1, run["live_ticks"] + run["down_ticks"]),
        "recovery_p99_ticks": percentile(recovery, 0.99) if recovery else 1.0,
        "delivered_ratio": 1.0,
        "packet_p99_cycles": 1.0,
    }
    no_samples = [
        name for name, empty in (
            ("admit_latency_p99_ticks", not open_latency),
            ("hitless_ratio", not resizes),
            ("links_touched_p95", not resizes),
            ("recovery_p99_ticks", not recovery),
        ) if empty
    ]
    cluster = isinstance(service, ClusterService)
    delivery = service.delivery_summary() if cluster else None
    if delivery is not None and delivery["offered_packets"]:
        metrics["delivered_ratio"] = delivery["delivery_ratio"]
        metrics["packet_p99_cycles"] = float(delivery["latency"]["p99"])
    else:
        no_samples += ["delivered_ratio", "packet_p99_cycles"]
    digest = hashlib.sha256()
    for r in run["responses"]:
        digest.update(b"-" if r is None else f"{r.status}:{r.reason}:{r.latency};".encode())
    return metrics, no_samples, digest.hexdigest(), delivery


def run_checks(service, run, delivery) -> list[str]:
    """Correctness checks; any entry fails the run."""
    problems = []
    missing = sum(1 for r in run["responses"] if r is None) - run["skipped"]
    if missing:
        problems.append(f"{missing} submitted request(s) never completed")
    cluster = isinstance(service, ClusterService)
    if cluster:
        problems += [f"directory: {p}" for p in service.check_consistency()]
    counts = service.shutdown()
    lost = counts.get("lost", 0) + (service.stats.lost_sessions if cluster else 0)
    if lost:
        problems.append(f"{lost} session(s) lost")
    if delivery is not None:
        flits = delivery["config"]["flits_per_packet"]
        offered, delivered = delivery["offered_packets"], delivery["delivered_packets"]
        if delivery["offered_flits"] != flits * offered:
            problems.append("offered flits != flits_per_packet * offered packets")
        if delivered + delivery["undelivered_packets"] != offered:
            problems.append("delivered + undelivered packets != offered packets")
        if not flits * delivered <= delivery["delivered_flits"] <= delivery["offered_flits"]:
            problems.append("delivered flits outside [F * delivered packets, offered flits]")
    return problems


def layer_metrics(tracer, service, run) -> dict:
    """Per-layer numbers from the spans of one traced repetition."""
    ticks = len(run["tick_s"])
    spans = tracer.total_s
    busy_total = sum(tracer.self_s.values()) or 1.0
    fabrics = _fabrics(service)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = tracer.self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = float(tracer.layer_calls(layer))
        out[f"{layer}.share"] = tracer.self_s.get(layer, 0.0) / busy_total

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def p50_ms(name: str) -> float:
        samples = tracer.samples.get(name)
        return statistics.median(samples) * 1e3 if samples else 0.0

    routed = tracer.routed
    quarter = max(1, ticks // 4)
    first = statistics.median(run["tick_s"][:quarter])
    last = statistics.median(run["tick_s"][-quarter:])
    queue_peak = max(f.queue.stats.peak_depth for f in fabrics)
    offered = sum(f.stats.offered for f in fabrics)
    shed = sum(f.stats.shed for f in fabrics)
    out.update({
        "serve.tick_self_ms_p50": p50_ms("FabricService.tick"),
        "serve.tick_growth": ratio(last, first),
        "serve.queue_peak_depth": float(queue_peak),
        "serve.shed_ratio": ratio(shed, offered),
        "core.batch.conferences_per_call": ratio(routed, out["core.batch.calls"]),
        "core.batch.us_per_conference": ratio(out["core.batch.busy_s"] * 1e6, routed),
        "core.admission.leave_us": ratio(
            spans.get("AdmissionController.leave", 0.0) * 1e6,
            tracer.calls["AdmissionController.leave"],
        ),
        "core.churn.ops": float(tracer.calls["SelfHealingController.resize"]),
        "core.healing.transitions": out["core.healing.calls"],
        "core.healing.ms_per_transition": ratio(
            (spans.get("SelfHealingController.apply_fault", 0.0)
             + spans.get("SelfHealingController.apply_repair", 0.0)) * 1e3,
            out["core.healing.calls"],
        ),
        "obs.observe_calls_per_tick": ratio(
            tracer.calls["Histogram.observe"] + tracer.calls["SLOEvaluator.observe"], ticks
        ),
        "cluster.tick_self_ms_p50": p50_ms("ClusterService.tick"),
        "cluster.failover_ms": spans.get("ClusterService.fail_shard", 0.0) * 1e3,
        "cluster.scale_up_ms": spans.get("ClusterService.scale_up", 0.0) * 1e3,
    })
    resizes = [r for r in run["responses"] if r is not None and r.status == "applied"]
    out["core.churn.fallback_ratio"] = ratio(
        sum(1 for r in resizes if r.detail.get("mode") != "incremental"), len(resizes)
    )
    plan_stores = [f.healing.plan_store for f in fabrics if f.healing.plan_store is not None]
    out["protect.plans_built"] = float(sum(p.stats.computed for p in plan_stores))
    hits = sum(f.healing.stats.plan_hits for f in fabrics)
    lookups = hits + sum(f.healing.stats.plan_misses + f.healing.stats.plan_stale for f in fabrics)
    out["protect.plan_hit_ratio"] = ratio(hits, lookups)
    if isinstance(service, ClusterService):
        out["cluster.migrations"] = float(service.stats.migrations + service.stats.failovers)
        models = [f.delivery for f in fabrics if f.delivery is not None]
        cycles = sum((m.ticks - m.idle_ticks) * m.config.cycles_per_tick for m in models)
        flits = sum(m.delivered_flits for m in models)
    else:
        out["cluster.migrations"] = 0.0
        cycles = flits = 0
    perf_s = spans.get("DeliveryModel.on_tick", 0.0)
    out["perfmodel.cycles_per_s"] = ratio(cycles, perf_s)
    out["perfmodel.flits_per_s"] = ratio(flits, perf_s)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TIMELINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = install() if args.trace else None
    timeline = TIMELINES[args.workload](args.seed)
    faults = (
        _fault_timeline(args.seed, len(timeline.ticks) + SETTLE_TICKS)
        if args.workload == "churn_faults" else None
    )
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        start = perf_counter()
        service = _setup(args.workload, args.seed, faults)
        raw_setups.append(perf_counter() - start)
        setups.append(raw_setups[-1] * REF_NOMINAL_S * 2 / (before + reference_s()))
    if tracer is not None:
        tracer.reset()  # drop the spans of set-up
    # The timeline, the pre-built callbacks and the discarded set-ups are
    # the harness's objects: frozen, they stay out of the collector's
    # full passes, which otherwise land as 30-40 ms pauses on a few ticks
    # and decide the tick p99.
    gc.collect()
    gc.freeze()
    run = drive(service, timeline)
    metrics, no_samples, digest, delivery = outcome_metrics(service, timeline, run)
    layer = layer_metrics(tracer, service, run) if tracer is not None else {}
    completed = sum(1 for r in run["responses"] if r is not None)
    ok = sum(1 for r in run["responses"] if r is not None and r.ok)
    problems = run_checks(service, run, delivery)
    print(json.dumps({
        "trace": args.trace,
        "problems": problems,
        "attempted": timeline.n_events,
        "failed": timeline.n_events - ok,
        "digest": digest,
        "deterministic": metrics,
        "no_samples": no_samples,
        "setup_s": statistics.median(setups),
        "requests_per_s": completed / run["serve_s"],
        "tick_s": run["tick_s"],
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "requests_per_s": completed / run["raw_serve_s"],
            "tick_p50_ms": statistics.median(run["raw_tick_s"]) * 1e3,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "harness_s": run["harness_s"],
        "ref_loop_ms": statistics.median(run["ref_s"]) * 1e3,
        "layers": layer,
    }))


if __name__ == "__main__":
    main()
