"""Stateful property tests (hypothesis RuleBasedStateMachine).

Long random interleavings of operations against simple reference
models: the buddy allocator against a set-based overlap checker, and
the admission controller against link loads recounted from scratch
with :func:`repro.core.conflict.link_loads`.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.admission import AdmissionController, AdmissionDenied, BuddyAllocator
from repro.core.batch import stage_occupancy
from repro.core.churn import extend_route, prune_route
from repro.core.conference import Conference
from repro.core.conflict import link_loads
from repro.core.network import ConferenceNetwork
from repro.core.routing import Route


class BuddyMachine(RuleBasedStateMachine):
    """The buddy allocator never overlaps, never leaks, always coalesces."""

    def __init__(self):
        super().__init__()
        self.alloc = BuddyAllocator(64)
        self.live: dict[int, range] = {}

    @rule(size=st.integers(1, 32))
    def allocate(self, size):
        try:
            block = self.alloc.allocate(size)
        except MemoryError:
            # Denial is only legal when no free block is big enough.
            need = max(0, (size - 1).bit_length())
            assert self.alloc.largest_free_exponent() < need
            return
        for other in self.live.values():
            assert block.stop <= other.start or other.stop <= block.start
        self.live[block.start] = block

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def release(self, data):
        base = data.draw(st.sampled_from(sorted(self.live)))
        self.alloc.release(base)
        del self.live[base]

    @invariant()
    def capacity_accounts_for_block_sizes(self):
        used = sum(len(b) for b in self.live.values())
        assert self.alloc.free_capacity() == 64 - used

    @invariant()
    def empty_means_fully_coalesced(self):
        if not self.live:
            assert self.alloc.largest_free_exponent() == 6


class AdmissionMachine(RuleBasedStateMachine):
    """The admission controller's ledger always equals a from-scratch
    recount of the live routes — every link, zeros included — through
    all four booking paths (admit, replace, churn, leave); capacity is
    never exceeded, and every denial is the one the model predicts,
    naming the same link with the same text."""

    N = 16

    def __init__(self):
        super().__init__()
        self.network = ConferenceNetwork.build("indirect-binary-cube", self.N, dilation=2)
        self.ctl = AdmissionController(self.network)
        self.next_id = 0
        self.routes: dict[int, Route] = {}  # the model: live route per id

    def _owner(self) -> dict[int, int]:
        return {p: cid for cid, r in self.routes.items() for p in r.conference.members}

    def _ports(self, data, exclude=()) -> list[int]:
        """Free ports, or (half the time) any port, to drive port clashes."""
        owned = self._owner()
        if data.draw(st.booleans()):
            return [p for p in range(self.N) if p not in owned and p not in exclude]
        return [p for p in range(self.N) if p not in exclude]

    def _check_denial(self, denial, cid, ports, added):
        """``ports`` clashing with another live conference deny first;
        otherwise the first of ``added`` already at the dilation does."""
        foreign = sorted(p for p, owner in self._owner().items() if owner != cid and p in ports)
        if foreign:
            assert denial.reason == "ports"
            assert denial.detail == f"ports {foreign} already in a conference"
            return
        loads = link_loads(self.routes.values())
        cap = self.network.dilation
        full = [link for link in added if loads[link] >= cap]
        assert denial.reason == "capacity" and full
        assert denial.detail == f"link {full[0]} at load {loads[full[0]]}/{cap}"

    def _booked(self, cid, route):
        assert self.ctl.route_of(cid) is route
        self.routes[cid] = route

    @rule(data=st.data())
    def join(self, data):
        pool = self._ports(data)
        if len(pool) < 2:
            return
        size = data.draw(st.integers(2, min(4, len(pool))))
        members = data.draw(
            st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True)
        )
        conf = Conference.of(members, conference_id=self.next_id)
        self.next_id += 1
        try:
            route = self.ctl.try_join(conf)
        except AdmissionDenied as denial:
            self._check_denial(denial, None, members, self.network.route(conf).links)
            return
        self._booked(conf.conference_id, route)

    @precondition(lambda self: self.routes)
    @rule(data=st.data())
    def replace(self, data):
        cid = data.draw(st.sampled_from(sorted(self.routes)))
        old = self.routes[cid]
        keep = data.draw(
            st.lists(st.sampled_from(old.conference.members), min_size=1, unique=True)
        )
        pool = self._ports(data, exclude=old.conference.members)
        extra = data.draw(st.lists(st.sampled_from(pool), max_size=2, unique=True)) if pool else []
        if len(keep) + len(extra) < 2:
            return
        new = self.network.route(Conference.of(keep + extra, conference_id=cid))
        try:
            self.ctl.replace_route(cid, new)
        except AdmissionDenied as denial:
            self._check_denial(denial, cid, extra, new.links - old.links)
            assert self.ctl.route_of(cid) is old
            return
        self._booked(cid, new)

    @precondition(lambda self: self.routes)
    @rule(data=st.data())
    def extend(self, data):
        cid = data.draw(st.sampled_from(sorted(self.routes)))
        old = self.routes[cid]
        pool = self._ports(data, exclude=old.conference.members)
        if not pool:
            return
        port = data.draw(st.sampled_from(pool))
        churn = extend_route(self.network.topology, old, port)
        try:
            self.ctl.apply_churn(churn)
        except AdmissionDenied as denial:
            self._check_denial(denial, cid, [port], churn.links_added)
            assert self.ctl.route_of(cid) is old
            return
        self._booked(cid, churn.after)

    @precondition(lambda self: any(len(r.conference.members) > 2 for r in self.routes.values()))
    @rule(data=st.data())
    def prune(self, data):
        cid = data.draw(
            st.sampled_from(
                sorted(c for c, r in self.routes.items() if len(r.conference.members) > 2)
            )
        )
        old = self.routes[cid]
        port = data.draw(st.sampled_from(old.conference.members))
        churn = prune_route(self.network.topology, old, port)
        try:
            self.ctl.apply_churn(churn)
        except AdmissionDenied as denial:
            self._check_denial(denial, cid, [], churn.links_added)
            assert self.ctl.route_of(cid) is old
            return
        self._booked(cid, churn.after)

    @precondition(lambda self: self.routes)
    @rule(data=st.data())
    def leave(self, data):
        cid = data.draw(st.sampled_from(sorted(self.routes)))
        self.ctl.leave(cid)
        del self.routes[cid]

    @invariant()
    def ledger_matches_recount(self):
        n_stages = self.network.n_stages
        recount = np.zeros((n_stages + 1, self.N), dtype=np.int64)
        for (t, r), load in link_loads(self.routes.values()).items():
            recount[t, r] = load
        ledger = np.array(
            [[self.ctl.link_load((t, r)) for r in range(self.N)] for t in range(n_stages + 1)]
        )
        np.testing.assert_array_equal(ledger, recount)
        live = [self.ctl.route_of(cid) for cid in self.ctl.live_conferences]
        np.testing.assert_array_equal(stage_occupancy(live, n_stages, self.N), recount)
        assert self.ctl.stage_loads() == {
            t: [int(v) for v in row if v] for t, row in enumerate(recount) if row.any()
        }
        assert self.ctl.peak_load() == int(recount.max())

    @invariant()
    def capacity_never_exceeded(self):
        assert self.ctl.peak_load() <= self.network.dilation

    @invariant()
    def live_sets_agree(self):
        assert set(self.ctl.live_conferences) == set(self.routes)
        assert self.ctl.ports_in_use == frozenset(self._owner())


TestBuddyMachine = BuddyMachine.TestCase
TestBuddyMachine.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)

TestAdmissionMachine = AdmissionMachine.TestCase
TestAdmissionMachine.settings = settings(max_examples=25, stateful_step_count=40, deadline=None)
