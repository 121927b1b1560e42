"""Golden snapshots of incremental churn (``extend_route``/``prune_route``).

Pinned re-routes keep each continuing member's tap when the grown
combination still reaches it, so the result depends on the starting
route, not only on the new member set.  These records hold every
observable of a churn step — the ``repr`` of the new route (dict
insertion order included), the moved taps, the drift count, the mode
and the fallback reason — for cube, omega and extra-stage-cube at
N=16 under both tap policies: in-block and block-growing joins,
multi-port joins, leaves, routes healed around faults (extended after
the repair, so pins outlive the fault and accrue drift), extends under
a live fault, unroutable extends, and the drift-limit fallback.
"""

import pytest

from repro.core.churn import extend_route, prune_route
from repro.core.conference import Conference
from repro.core.routing import RoutingPolicy, route_conference
from repro.topology.builders import build
from repro.util.rng import ensure_rng

pytestmark = pytest.mark.tier1

N_PORTS = 16
TOPOLOGIES = ("indirect-binary-cube", "omega", "extra-stage-cube")


def aligned_block(members):
    """The smallest aligned power-of-two port block holding ``members``."""
    lo, hi = min(members), max(members)
    size = 1
    while lo // size != hi // size:
        size *= 2
    start = lo // size * size
    return range(start, start + size)


def record(label, step):
    """Run one churn step; keep its observables or its error."""
    try:
        result = step()
    except ValueError as exc:  # UnroutableError is a ValueError subclass
        return {"case": label, "error": type(exc).__name__, "args": list(exc.args)}
    return {
        "case": label,
        "after": repr(result.after),
        "taps_moved": repr(result.taps_moved),
        "drift_links": result.drift_links,
        "mode": result.mode,
        "fallback_reason": result.fallback_reason,
    }


def churn_records(topology, tap, seed):
    net = build(topology, N_PORTS)
    policy = RoutingPolicy(tap_policy=tap)
    rng = ensure_rng(seed)
    out = []
    for cid in range(10):
        k = int(rng.integers(2, 6))
        members = sorted(int(m) for m in rng.choice(N_PORTS, size=k, replace=False))
        route = route_conference(net, Conference.of(members, cid), policy)
        block = [p for p in aligned_block(members) if p not in members]
        outside = [p for p in range(N_PORTS) if p not in aligned_block(members)]
        if block:
            joiner = int(rng.choice(block))
            out.append(record(f"{cid}:in-block+{joiner}",
                              lambda: extend_route(net, route, joiner, policy=policy)))
        if outside:
            joiner = int(rng.choice(outside))
            out.append(record(f"{cid}:grow+{joiner}",
                              lambda: extend_route(net, route, joiner, policy=policy)))
        free = [p for p in range(N_PORTS) if p not in members]
        pair = sorted(int(p) for p in rng.choice(free, size=2, replace=False))
        out.append(record(f"{cid}:join{pair}",
                          lambda: extend_route(net, route, pair, policy=policy)))
        leaver = int(rng.choice(members))
        out.append(record(f"{cid}:leave-{leaver}",
                          lambda: prune_route(net, route, leaver, policy=policy)))

        # Heal around faults, then churn after the repair: pins from the
        # fault era survive and the route carries drift.  A fault on a
        # member's tap point moves that tap where the topology has a
        # second path (extra-stage cube); banyans get random faults only.
        tapped = [(t, p) for p, t in route.taps.items() if t >= 1]
        random_faults = frozenset(
            (int(rng.integers(1, net.n_stages + 1)), int(rng.integers(N_PORTS)))
            for _ in range(3)
        )
        on_tap = random_faults | {tapped[int(rng.integers(len(tapped)))]}
        healed = None
        for faults in (on_tap, random_faults):
            try:
                healed = route_conference(net, Conference.of(members, cid), policy, faults)
                break
            except ValueError:
                continue
        if healed is None:
            continue
        joiner = int(rng.choice(free))
        out.append(record(f"{cid}:healed+{joiner}",
                          lambda: extend_route(net, healed, joiner, policy=policy)))
        out.append(record(f"{cid}:healed+{joiner}@faults",
                          lambda: extend_route(net, healed, joiner, policy=policy,
                                               faults=faults)))
        cut = faults | {(0, joiner)}  # the joiner's own injection is dead
        out.append(record(f"{cid}:healed+{joiner}@cut",
                          lambda: extend_route(net, healed, joiner, policy=policy,
                                               faults=cut)))
        out.append(record(f"{cid}:healed+{joiner}@drift0",
                          lambda: extend_route(net, healed, joiner, policy=policy,
                                               drift_limit=0)))
        out.append(record(f"{cid}:healed-{leaver}",
                          lambda: prune_route(net, healed, leaver, policy=policy)))
    return out


class TestChurnGolden:
    def test_churn_records(self, golden):
        records = {
            f"{topology}/{tap}": churn_records(topology, tap, seed=11)
            for topology in TOPOLOGIES
            for tap in ("earliest", "final")
        }
        # A banyan drift case: the fault at (3, 6) moves a tap on omega.
        net = build("omega", N_PORTS)
        healed = route_conference(net, Conference.of([2, 6, 14]), faults=frozenset({(3, 6)}))
        records["omega/healed"] = [
            record("healed+10", lambda: extend_route(net, healed, 10)),
            record("healed+10@drift0", lambda: extend_route(net, healed, 10, drift_limit=0)),
            record("healed-6", lambda: prune_route(net, healed, 6)),
        ]
        # The corpus must exercise the pinned paths it exists to freeze.
        flat = [r for recs in records.values() for r in recs]
        assert any(r.get("drift_links", 0) > 0 for r in flat)
        assert any((r.get("fallback_reason") or "").startswith("drift:") for r in flat)
        assert any(r.get("taps_moved") not in (None, "{}") for r in flat)
        assert any("error" in r for r in flat)
        golden("churn_cube16", records)
