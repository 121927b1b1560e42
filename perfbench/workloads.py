"""Seeded request timelines for the benchmark workloads.

A timeline is the whole open-loop load of one run, drawn from the seed
before anything is timed: ``ticks[t]`` lists the requests due at virtual
tick ``t`` as ``(event, kind, session, ports)`` tuples, where ``event``
indexes the request, ``session`` is the workload-local conference index
and ``ports`` is the member set of an open or the ports of a join/leave.

Ports come from one free pool, so live conferences are port-disjoint at
every tick.  Ports given back by a close return to the pool only
``_REUSE_DELAY`` ticks later, so a request never races the release of
its own ports inside one admission batch.
Every conference is closed by the last tick of the timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OPEN, JOIN, LEAVE, CLOSE = "open", "join", "leave", "close"

_REUSE_DELAY = 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (deterministic; ``q`` in [0, 1])."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))])


@dataclass(frozen=True)
class Timeline:
    """The generated requests of one run, bucketed by due tick."""

    ticks: list[list[tuple[int, str, int, tuple[int, ...]]]]
    n_events: int
    n_sessions: int
    open_event: list[int]  # session index -> event index of its open
    drills: dict[int, str]  # tick -> cluster drill ("fail_shard" / "scale_up")


class _Draft:
    """Free-port ledger plus the growing per-tick request lists."""

    def __init__(self, n_ports: int, n_ticks: int, rng: np.random.Generator):
        self.rng = rng
        self.free = list(range(n_ports))
        self.returning: dict[int, list[int]] = {}
        self.ticks: list[list] = [[] for _ in range(n_ticks)]
        self.members: list[list[int]] = []
        # Ports that left a conference come back only at its close, so a
        # leave the service refused cannot hand a port to two sessions.
        self.left: list[list[int]] = []
        self.open_event: list[int] = []
        self.opened_at: list[int] = []  # session index -> tick of its open
        self.live: list[int] = []  # sessions open and not yet closing
        self.close_at: dict[int, list[int]] = {}  # tick -> sessions due to close
        self.n_events = 0

    def advance(self, tick: int) -> None:
        self.free.extend(self.returning.pop(tick, ()))

    def _emit(self, tick: int, kind: str, session: int, ports) -> int:
        event = self.n_events
        self.ticks[tick].append((event, kind, session, tuple(ports)))
        self.n_events += 1
        return event

    def _grab(self, count: int) -> "list[int] | None":
        if count > len(self.free):
            return None
        picked = []
        for _ in range(count):
            i = int(self.rng.integers(len(self.free)))
            self.free[i], self.free[-1] = self.free[-1], self.free[i]
            picked.append(self.free.pop())
        return sorted(picked)

    def _give_back(self, tick: int, ports) -> None:
        self.returning.setdefault(tick + _REUSE_DELAY, []).extend(ports)

    def open(self, tick: int, size: int, hold: int) -> "int | None":
        """Open a conference of ``size`` fresh ports, to close ``hold``
        ticks later (at the last tick at the latest)."""
        ports = self._grab(size)
        if ports is None:
            return None
        session = len(self.members)
        self.members.append(ports)
        self.left.append([])
        self.open_event.append(self._emit(tick, OPEN, session, ports))
        self.opened_at.append(tick)
        self.live.append(session)
        self.close_at.setdefault(min(tick + hold, len(self.ticks) - 1), []).append(session)
        return session

    def close_due(self, tick: int) -> list[int]:
        """Close the conferences due at ``tick``; returns them."""
        due = self.close_at.pop(tick, [])
        for session in due:
            self.close(tick, session)
        return due

    def pick_resizable(self, tick: int, touched: set) -> "int | None":
        """A uniformly chosen live conference opened at least two ticks
        before ``tick`` and not in ``touched`` (added to it), or ``None``."""
        ready = [
            s for s in self.live if self.opened_at[s] + 2 <= tick and s not in touched
        ]
        if not ready:
            return None
        session = ready[int(self.rng.integers(len(ready)))]
        touched.add(session)
        return session

    def join(self, tick: int, session: int) -> bool:
        ports = self._grab(1)
        if ports is None:
            return False
        self.members[session].extend(ports)
        self._emit(tick, JOIN, session, ports)
        return True

    def leave(self, tick: int, session: int) -> bool:
        members = self.members[session]
        if len(members) <= 2:
            return False
        port = members.pop(int(self.rng.integers(len(members))))
        self.left[session].append(port)
        self._emit(tick, LEAVE, session, (port,))
        return True

    def close(self, tick: int, session: int) -> None:
        self.live.remove(session)
        self._emit(tick, CLOSE, session, ())
        self._give_back(tick, self.members[session] + self.left[session])

    def build(self, drills: "dict[int, str] | None" = None) -> Timeline:
        # Closes are due by the last tick at the latest, so none is left.
        assert not self.close_at, "a close is scheduled past the last tick"
        return Timeline(
            ticks=self.ticks,
            n_events=self.n_events,
            n_sessions=len(self.members),
            open_event=self.open_event,
            drills=dict(drills or {}),
        )


def _session_timeline(
    seed: int,
    *,
    n_ports: int,
    ticks: int,
    arrival_rate: float,
    size_of,
    mean_hold: float,
    resize_rate: float,
    drills: "dict[int, str] | None" = None,
) -> Timeline:
    """Poisson opens held for geometric times, with random joins/leaves.

    ``resize_rate`` joins/leaves per tick (Poisson, half each) land on
    uniformly chosen live conferences at least two ticks after their open
    and before their close, at most one per conference and tick: the
    service runs leaves before joins within a tick, so a second change
    could otherwise name a port the first one has not added yet.  None
    lands on a drill's tick: a cluster rejects a resize of a session the
    drill has set migrating, until the tick moves it.
    Arrivals that find too few free ports are skipped, so the live load
    settles where the port pool runs out.  No conference opens in the last
    three ticks, and every conference still live at the last tick is
    closed then.
    """
    root = np.random.default_rng(seed)
    arrivals, sizes, holds, resizes, picks = root.spawn(5)
    draft = _Draft(n_ports, ticks, picks)
    for tick in range(ticks):
        draft.advance(tick)
        draft.close_due(tick)
        touched: set[int] = set()
        n_resizes = int(resizes.poisson(resize_rate))
        if drills and tick in drills:
            n_resizes = 0  # the drill sets sessions moving until the tick runs
        for _ in range(n_resizes):
            session = draft.pick_resizable(tick, touched)
            if session is None:
                break
            if picks.random() < 0.5:
                draft.join(tick, session)
            else:
                draft.leave(tick, session)
        if tick + 3 >= ticks:
            continue  # too late to hold for the minimum 3 ticks
        for _ in range(int(arrivals.poisson(arrival_rate))):
            size = size_of(sizes)
            if size > len(draft.free):
                continue
            draft.open(tick, size, max(3, int(holds.geometric(1.0 / mean_hold))))
    return draft.build(drills)


def open_close(seed: int) -> Timeline:
    """~8 opens per tick (mean size 4, hold ~20 ticks), closes only."""
    return _session_timeline(
        seed,
        n_ports=256,
        ticks=OPEN_CLOSE_TICKS,
        arrival_rate=8.0,
        size_of=lambda rng: 2 + int(rng.poisson(2.0)),
        mean_hold=20.0,
        resize_rate=0.0,
    )


def zipf_quantile_sizes(count: int, alpha: float = 1.8, max_size: int = 32) -> list[int]:
    """``count`` conference sizes ``1 + Zipf(alpha)`` at evenly spaced quantiles.

    The same size mix for every seed: a heavy tail drawn at random would
    make the cost of a run depend on the seed more than on the program.
    """
    pmf = [k ** -alpha for k in range(1, 1 << 16)]
    total = sum(pmf)
    sizes, cdf, k = [], 0.0, 0
    for i in range(count):
        target = (i + 0.5) / count
        while cdf + pmf[k] / total < target and k + 1 < len(pmf):
            cdf += pmf[k] / total
            k += 1
        sizes.append(min(2 + k, max_size))
    return sizes


def _population_timeline(
    seed: int,
    *,
    n_ports: int,
    ticks: int,
    sizes: list[int],
    mean_hold: float,
    resizes_per_tick: int,
) -> Timeline:
    """A fixed population of conferences, one per entry of ``sizes``.

    Each slot keeps one conference of its size live: a conference held for
    a geometric time is closed and its slot reopens on the next tick with
    fresh ports.  Exactly ``resizes_per_tick`` joins/leaves land per tick,
    on uniformly chosen conferences opened at least two ticks earlier, at
    most one per conference and tick; a conference at its slot size gains
    a member and one above it loses one.  Every seed therefore offers the
    same amount of work, and the seed decides which ports, which
    conferences and when.
    """
    root = np.random.default_rng(seed)
    holds, picks = root.spawn(2)
    draft = _Draft(n_ports, ticks, picks)
    slot_of: dict[int, int] = {}
    reopen: dict[int, list[int]] = {0: list(range(len(sizes)))}
    for tick in range(ticks):
        draft.advance(tick)
        for session in draft.close_due(tick):
            reopen.setdefault(tick + 1, []).append(slot_of[session])
        touched: set[int] = set()
        for _ in range(resizes_per_tick):
            session = draft.pick_resizable(tick, touched)
            if session is None:
                break
            if len(draft.members[session]) > sizes[slot_of[session]]:
                draft.leave(tick, session)
            else:
                draft.join(tick, session)
        if tick == ticks - 1:
            continue
        for slot in reopen.pop(tick, ()):
            if sizes[slot] > len(draft.free):
                raise ValueError("port pool too small for the conference population")
            session = draft.open(tick, sizes[slot], max(3, int(holds.geometric(1.0 / mean_hold))))
            slot_of[session] = slot
    return draft.build()


def churn_faults(seed: int) -> Timeline:
    """A fixed population of Zipf-sized conferences, joins/leaves every tick."""
    return _population_timeline(
        seed,
        n_ports=256,
        ticks=CHURN_FAULTS_TICKS,
        sizes=zipf_quantile_sizes(6, max_size=16),
        mean_hold=20.0,
        resizes_per_tick=2,
    )


def cluster_buffered(seed: int) -> Timeline:
    """Cluster load over one logical 64-port pool, with two drills."""
    return _session_timeline(
        seed,
        n_ports=64,
        ticks=CLUSTER_TICKS,
        arrival_rate=1.0,
        size_of=lambda rng: 2 + int(rng.poisson(2.0)),
        mean_hold=20.0,
        resize_rate=0.5,
        drills={CLUSTER_TICKS // 3: "fail_shard", (2 * CLUSTER_TICKS) // 3: "scale_up"},
    )


OPEN_CLOSE_TICKS = 1500
CHURN_FAULTS_TICKS = 170
CLUSTER_TICKS = 450

TIMELINES = {
    "open_close": open_close,
    "churn_faults": churn_faults,
    "cluster_buffered": cluster_buffered,
}
