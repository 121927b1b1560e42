"""Golden snapshot of the fault tick: backup plans and occupancy telemetry.

A seeded :class:`~repro.serve.service.FabricService` on a 64-port
extra-stage cube runs with two backup plans per conference
(``protection=2``), a metrics registry, membership churn and a fault
timeline dense enough that faults overlap.  After every fault
transition the record keeps each live conference's stored plans,
``point -> repr(entry)`` (dict insertion order included; a positive
plan's route body is kept as a SHA-256 prefix of its ``repr``, which
keeps the corpus small, a negative plan as its error text), and at the
end the whole Prometheus exposition,
which carries the per-stage link-occupancy histograms and the
conflict-multiplicity gauges the healing controller samples each tick.
A change to plan ranking, plan routing, the re-protection sweep or the
telemetry path shows up here as a reviewable diff.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.core.network import ConferenceNetwork
from repro.obs.metrics import MetricsRegistry
from repro.parallel.cache import RouteCache
from repro.serve.service import FabricService
from repro.sim.faults import FaultProcessConfig, generate_fault_timeline
from repro.util.rng import ensure_rng

pytestmark = pytest.mark.tier1

N_PORTS = 64
TICKS = 100


def entry_record(entry) -> str:
    text = repr(entry)
    if isinstance(entry, tuple):  # a (levels, taps) route body
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]
    return text


@lru_cache(maxsize=None)
def fault_tick_run(seed: int, cached: bool = False) -> dict:
    net = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=4)
    registry = MetricsRegistry()
    cache = RouteCache(net.topology, policy=net.policy) if cached else None
    svc = FabricService(net, rng=seed, protection=2, metrics=registry, route_cache=cache)
    timeline = generate_fault_timeline(
        net.topology,
        FaultProcessConfig(mean_time_to_failure=600.0, mean_time_to_repair=6.0),
        horizon=float(TICKS),
        seed=seed,
    )
    injector = svc.attach_faults(timeline)
    healing = svc.healing
    transitions = []

    def record(_loop, transition):
        store = healing.plan_store
        transitions.append({
            "t": transition.time,
            "point": list(transition.point),
            "failed": transition.failed,
            "dead": len(healing.current_faults),
            "plans": {
                str(cid): {
                    repr(point): entry_record(plan.entry)
                    for point, plan in store.plans_of(cid).items()
                }
                for cid in sorted(healing.live_conferences)
            },
        })

    injector.subscribe(record)  # after the healing controller's own listener

    rng = ensure_rng(seed + 1)
    free = set(range(N_PORTS))
    live: dict[int, list[int]] = {}  # session id -> members

    def take(k):
        ports = sorted(int(p) for p in rng.choice(sorted(free), size=k, replace=False))
        free.difference_update(ports)
        return ports

    for _ in range(TICKS):
        if len(free) >= 8 and rng.random() < 0.8:
            members = take(int(rng.integers(2, 9)))
            live[svc.submit_open(members)] = members
        for sid in sorted(live):
            roll = rng.random()
            if roll < 0.03:
                svc.submit_close(sid)
                free.update(live.pop(sid))
            elif roll < 0.12 and free:
                joiners = take(1)
                svc.submit_join(sid, joiners)
                live[sid] = sorted(live[sid] + joiners)
            elif roll < 0.18 and len(live[sid]) > 2:
                leaver = int(rng.choice(live[sid]))
                svc.submit_leave(sid, [leaver])
                live[sid] = [p for p in live[sid] if p != leaver]
                free.add(leaver)
        svc.tick()

    return {
        "transitions": transitions,
        "plan_stats": healing.plan_store.stats.as_dict(),
        "prometheus": registry.render_prometheus().splitlines(),
    }


class TestFaultTickGolden:
    def test_protect_telemetry(self, golden):
        run = fault_tick_run(seed=5)
        # The corpus must exercise what it exists to freeze: overlapping
        # faults (plans cut on a non-empty base), negative plans, plan
        # hits and churn invalidations.
        stats = run["plan_stats"]
        assert stats["hits"] > 0 and stats["invalidated"] > 0
        assert any(tr["dead"] >= 2 and tr["plans"] for tr in run["transitions"])
        entries = [e for tr in run["transitions"] for plans in tr["plans"].values()
                   for e in plans.values()]
        assert any(e.startswith("UnroutableError") for e in entries)
        assert sum(tr["failed"] for tr in run["transitions"]) >= 20
        assert any("repro_link_occupancy_bucket{" in line for line in run["prometheus"])
        golden("protect_telemetry_es64", run)

    def test_route_cache_is_transparent(self):
        assert fault_tick_run(seed=5, cached=True) == fault_tick_run(seed=5)
