"""Conference placement and admission control.

Two placement disciplines frame the paper's comparison:

* **Aligned placement** (the Yang-2001 design): every conference is
  assigned an exclusive *aligned block* of ports sized to the next power
  of two, managed here by a classic buddy allocator.  On the indirect
  binary cube this makes simultaneous conferences provably conflict-free
  because a conference's route never leaves its block's rows.
* **Arbitrary placement** (this paper's question): members sit wherever
  the users happen to be attached; conflicts arise and their worst-case
  multiplicity is the paper's key quantity.

The :class:`AdmissionController` adds the dynamic dimension used by the
discrete-event simulator: conferences join and leave over time, and a
join is admitted only if the resulting link loads stay within the
network's dilation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.churn import ChurnResult

from repro.core.batch import route_batch
from repro.core.conference import Conference, ConferenceSet
from repro.core.network import ConferenceNetwork
from repro.core.routing import Route, flat_link_index
from repro.topology.network import Point
from repro.util.validation import check_network_size

__all__ = [
    "BuddyAllocator",
    "place_aligned",
    "AdmissionController",
    "AdmissionDenied",
    "BatchAdmissionOutcome",
]


class BuddyAllocator:
    """Power-of-two aligned block allocator over the port space.

    Maintains free lists per block exponent; allocation splits the
    smallest sufficient block (standard buddy discipline) and freeing
    coalesces buddies.  Used to realize the aligned placement policy and
    heavily property-tested (no overlap, coalescing restores the initial
    state, etc.).
    """

    def __init__(self, n_ports: int):
        self._n = check_network_size(n_ports)
        self._n_ports = n_ports
        # free[k] = set of aligned bases of free blocks of size 2**k.
        self._free: list[set[int]] = [set() for _ in range(self._n + 1)]
        self._free[self._n].add(0)
        self._allocated: dict[int, int] = {}  # base -> exponent

    @property
    def n_ports(self) -> int:
        """Total managed ports."""
        return self._n_ports

    def free_capacity(self) -> int:
        """Number of currently unallocated ports."""
        return sum(len(bases) << k for k, bases in enumerate(self._free))

    def largest_free_exponent(self) -> int:
        """Exponent of the largest free block, or -1 when full."""
        for k in range(self._n, -1, -1):
            if self._free[k]:
                return k
        return -1

    def allocate(self, size: int) -> range:
        """Allocate an aligned block holding at least ``size`` ports.

        Returns the block as a range; raises ``MemoryError`` when no
        block large enough is free (the caller treats this as call
        blocking).
        """
        if size < 1 or size > self._n_ports:
            raise ValueError(f"block size {size} out of range [1, {self._n_ports}]")
        want = max(0, (size - 1).bit_length())
        k = want
        while k <= self._n and not self._free[k]:
            k += 1
        if k > self._n:
            raise MemoryError(f"no free aligned block of size {1 << want}")
        base = min(self._free[k])
        self._free[k].remove(base)
        while k > want:  # split down to the requested exponent
            k -= 1
            self._free[k].add(base + (1 << k))
        self._allocated[base] = want
        return range(base, base + (1 << want))

    def release(self, base: int) -> None:
        """Free the allocated block starting at ``base``, coalescing buddies."""
        try:
            k = self._allocated.pop(base)
        except KeyError:
            raise KeyError(f"no allocated block at base {base}") from None
        while k < self._n:
            buddy = base ^ (1 << k)
            if buddy not in self._free[k]:
                break
            self._free[k].remove(buddy)
            base = min(base, buddy)
            k += 1
        self._free[k].add(base)

    def allocations(self) -> dict[int, int]:
        """Snapshot of live allocations: base -> exponent."""
        return dict(self._allocated)


def place_aligned(n_ports: int, sizes: Sequence[int]) -> ConferenceSet:
    """Place conferences of the given sizes into disjoint aligned blocks.

    Each conference of size ``m`` occupies the first ``m`` ports of a
    buddy-allocated block of size ``2**ceil(log2 m)`` — the Yang-2001
    discipline.  Raises ``MemoryError`` when the sizes do not fit.
    """
    alloc = BuddyAllocator(n_ports)
    groups = []
    # Largest first minimizes fragmentation, like any buddy system.
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    placed: dict[int, list[int]] = {}
    for idx in order:
        block = alloc.allocate(sizes[idx])
        placed[idx] = list(block)[: sizes[idx]]
    for idx in range(len(sizes)):
        groups.append(placed[idx])
    return ConferenceSet.of(n_ports, groups)


class AdmissionDenied(RuntimeError):
    """A conference join was rejected by admission control.

    ``reason`` is ``"capacity"`` (some link would exceed the dilation)
    or ``"ports"`` (a requested port is already in a conference).
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"admission denied ({reason}): {detail}")
        self.reason = reason
        self.detail = detail


@dataclass(frozen=True)
class BatchAdmissionOutcome:
    """One conference's verdict from :meth:`AdmissionController.try_join_batch`.

    Exactly one of ``route`` (admitted), ``denial`` (admission control
    said no), or ``error`` (routing itself failed — unroutable members
    or out-of-range ports) is set.
    """

    conference: Conference
    route: "Route | None" = None
    denial: "AdmissionDenied | None" = None
    error: "ValueError | None" = None

    @property
    def ok(self) -> bool:
        """True when the conference was admitted."""
        return self.route is not None

    def unwrap(self) -> Route:
        """The admitted route, or re-raise what stopped the admission."""
        if self.route is not None:
            return self.route
        if self.denial is not None:
            raise AdmissionDenied(self.denial.reason, self.denial.detail)
        assert self.error is not None
        raise type(self.error)(*self.error.args)


class AdmissionController:
    """Online admission of conferences under finite link dilation.

    Keeps the link-load ledger of all live conferences; a join is
    admitted only when every link the new route needs has spare
    capacity.  This is what the blocking-probability experiment (F3)
    drives.

    The ledger is one stage-major ``(n_stages + 1, n_ports)`` int array:
    entry ``[t, r]`` is the load of the link entering ``(t, r)``, i.e.
    :func:`~repro.core.batch.stage_occupancy` of the live routes, kept
    current.  Every change to it goes through :meth:`_book`.
    """

    def __init__(self, network: ConferenceNetwork, *, tracer=None):
        self._network = network
        self._ledger = np.zeros((network.n_stages + 1, network.n_ports), dtype=np.int64)
        self._flat = self._ledger.reshape(-1)  # view indexed by Route.link_index
        self._routes: dict[int, Route] = {}
        self._ports_in_use: set[int] = set()
        # Observation only (duck-typed repro.obs.trace.Tracer): ledger
        # changes emit admission.admit/deny/leave/replace events.
        self.tracer = tracer

    @property
    def network(self) -> ConferenceNetwork:
        """The conference network admission is managed for."""
        return self._network

    @property
    def live_conferences(self) -> tuple[int, ...]:
        """Ids of currently admitted conferences."""
        return tuple(self._routes)

    @property
    def ports_in_use(self) -> frozenset[int]:
        """Ports currently claimed by live conferences."""
        return frozenset(self._ports_in_use)

    def link_load(self, link: Point) -> int:
        """Current channel load on one inter-stage link (0 off the fabric)."""
        level, row = link
        n_levels, n_rows = self._ledger.shape
        if 0 <= level < n_levels and 0 <= row < n_rows:
            return int(self._ledger[level, row])
        return 0

    def peak_load(self) -> int:
        """The worst current link load (0 when idle)."""
        return int(self._ledger.max())

    def stage_loads(self) -> dict[int, list[int]]:
        """Nonzero channel loads per entering level, in row order.

        Key ``t`` lists the load of every occupied link entering level
        ``t``, so ``max`` of a value is the *observed* conflict
        multiplicity at that stage — the paper's headline quantity,
        live.  These are the values the per-stage link-occupancy
        telemetry records (it reads them off the ledger as arrays).
        """
        return {
            level: loads[loads > 0].tolist()
            for level, loads in enumerate(self._ledger)
            if loads.any()
        }

    def route_of(self, conference_id: int) -> Route:
        """The live route of one admitted conference."""
        try:
            return self._routes[conference_id]
        except KeyError:
            raise KeyError(f"no live conference with id {conference_id}") from None

    def try_join(self, conference: "Conference | Iterable[int]") -> Route:
        """Admit and route a conference, or raise :class:`AdmissionDenied`."""
        if not isinstance(conference, Conference):
            conference = Conference.of(conference)
        denial = self._port_denial(conference, None)
        if denial is not None:
            raise denial
        return self.admit_route(self._network.route(conference))

    def try_join_batch(
        self,
        conferences: "Iterable[Conference | Iterable[int]]",
    ) -> list[BatchAdmissionOutcome]:
        """Admit a batch: one columnar routing pass, sequential verdicts.

        The whole batch is routed up front by
        :func:`~repro.core.batch.route_batch`, then the admission state machine
        replays in order — duplicate-id check, port-clash check, then
        :meth:`admit_route` — against the ledger as it stood when each
        conference's turn came.  Every verdict, including denial reasons
        and the first-over-capacity link named in a capacity denial, is
        therefore identical to calling :meth:`try_join` once per
        conference in the same order.
        """
        confs = [
            c if isinstance(c, Conference) else Conference.of(c) for c in conferences
        ]
        routed = route_batch(self._network.topology, confs, self._network.policy)
        outcomes: list[BatchAdmissionOutcome] = []
        for conference, attempt in zip(confs, routed):
            try:
                denial = self._port_denial(conference, None)
                if denial is not None:
                    raise denial
                route = self.admit_route(attempt.unwrap())
            except AdmissionDenied as denial:
                outcomes.append(
                    BatchAdmissionOutcome(conference=conference, denial=denial)
                )
            except ValueError as error:
                outcomes.append(BatchAdmissionOutcome(conference=conference, error=error))
            else:
                outcomes.append(BatchAdmissionOutcome(conference=conference, route=route))
        return outcomes

    def admit_route(self, route: Route) -> Route:
        """Admit a pre-computed route (e.g. one routed around faults).

        Same checks as :meth:`try_join` — port exclusivity and link
        capacity — but the caller controls how the route was produced.
        """
        cid = route.conference.conference_id
        self._book(cid, None, route)
        if self.tracer is not None:
            self.tracer.event("admission.admit", cid=cid, links=route.n_links)
        return route

    def replace_route(self, conference_id: int, new_route: Route) -> Route:
        """Atomically swing a live conference onto a new route.

        Capacity is checked only on the links the new route *adds* (the
        links shared with the old route are already paid for), so a
        self-healing reroute can never be rejected for resources it
        already holds.  On :class:`AdmissionDenied` the ledger is
        untouched and the old route stays live.
        """
        old = self.route_of(conference_id)
        added = new_route.links - old.links
        self._book(conference_id, old, new_route, added)
        if self.tracer is not None:
            self.tracer.event(
                "admission.replace",
                cid=conference_id,
                added=len(added),
                released=len(old.links - new_route.links),
            )
        return new_route

    def apply_churn(self, churn: "ChurnResult") -> Route:
        """Apply a membership change as a delta against the ledger.

        The ledger moves by the exact ``links_added``/``links_removed``
        diff — a hitless in-block join changes nothing but its graft.
        Capacity is checked on the added links alone; on
        :class:`AdmissionDenied` the ledger is untouched and the old
        route stays live.  The result must have been computed against
        the currently live route (otherwise the diff is stale).
        """
        cid = churn.after.conference.conference_id
        old = self.route_of(cid)
        if old is not churn.before and (
            old.links != churn.before.links or old.taps != churn.before.taps
        ):
            raise ValueError(
                f"stale churn result for conference {cid}: "
                "not computed against the live route"
            )
        self._book(cid, old, churn.after, churn.links_added)
        if self.tracer is not None:
            self.tracer.event(
                "admission.churn",
                cid=cid,
                mode=churn.mode,
                added=len(churn.links_added),
                released=len(churn.links_removed),
                hitless=churn.hitless,
            )
        return churn.after

    def leave(self, conference_id: int) -> None:
        """Tear down a live conference, releasing its links."""
        self._book(conference_id, self.route_of(conference_id), None)
        if self.tracer is not None:
            self.tracer.event("admission.leave", cid=conference_id)

    def snapshot(self) -> ConferenceSet:
        """The live conferences as a validated :class:`ConferenceSet`."""
        return ConferenceSet(
            self._network.n_ports,
            tuple(r.conference for r in self._routes.values()),
        )

    # -- the one booking path ----------------------------------------------

    def _book(
        self,
        cid: int,
        old: "Route | None",
        new: "Route | None",
        added: "frozenset[Point] | None" = None,
    ) -> None:
        """Swing conference ``cid`` from ``old`` to ``new`` in the ledger.

        ``old`` is its live route (None for an admission), ``new`` the
        route taking its place (None for a leave).  A booking of ``new``
        first checks port exclusivity, then capacity on ``added`` — the
        links ``new`` holds that ``old`` did not (all of ``new``'s links
        when omitted) — and raises :class:`AdmissionDenied` with the
        ledger untouched on either failure.  Only then are ``old``'s
        links released and ``new``'s charged.
        """
        if new is not None:
            denial = self._port_denial(new.conference, old)
            if denial is None:
                denial = self._capacity_denial(new, added)
            if denial is not None:
                self._trace_deny(cid, denial.reason)
                raise denial
        if old is not None:
            self._flat[old.link_index] -= 1
            self._ports_in_use.difference_update(old.conference.members)
        if new is None:
            del self._routes[cid]
        else:
            self._flat[new.link_index] += 1
            self._ports_in_use.update(new.conference.members)
            self._routes[cid] = new

    def _port_denial(
        self, conference: Conference, old: "Route | None"
    ) -> "AdmissionDenied | None":
        """Why ``conference`` may not take the ports it asks for (or None).

        A new admission (``old`` is None) needs an unused id and ports
        no live conference holds; a route swap may keep ``old``'s ports.
        """
        if old is None and conference.conference_id in self._routes:
            return AdmissionDenied(
                "ports", f"conference id {conference.conference_id} already live"
            )
        return self._port_clash(conference, old)

    def _port_clash(
        self, conference: Conference, old: "Route | None" = None
    ) -> "AdmissionDenied | None":
        """The denial for ports of ``conference`` that another live
        conference holds (None when there are none); ``old``'s own ports
        do not clash with a route swap."""
        in_use = self._ports_in_use
        if old is not None:
            in_use = in_use - old.conference.member_set
        clash = in_use.intersection(conference.members)
        if clash:
            return AdmissionDenied("ports", f"ports {sorted(clash)} already in a conference")
        return None

    def _capacity_denial(
        self, new: Route, added: "frozenset[Point] | None"
    ) -> "AdmissionDenied | None":
        """The first link of ``added`` (in iteration order) already at the
        dilation, as a denial; None when every added link has room."""
        if added is None:
            added, index = new.links, new.link_index
        else:
            index = flat_link_index(added, self._ledger.shape[1])
        cap = self._network.dilation
        loads = self._flat[index]
        full = np.flatnonzero(loads >= cap)
        if not full.size:
            return None
        first = int(full[0])
        link = next(islice(added, first, None))
        return AdmissionDenied("capacity", f"link {link} at load {loads[first]}/{cap}")

    def _trace_deny(self, cid: int, reason: str) -> None:
        if self.tracer is not None:
            self.tracer.event("admission.deny", cid=cid, reason=reason)
