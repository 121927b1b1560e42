"""Columnar batch routing — the bitset kernel behind ``route_batch``.

:func:`~repro.core.routing.route_conference` walks per-member Python
dicts one conference at a time.  This module evaluates a whole *batch*
of conferences stage-by-stage with wide integer operations, the idiom of
stage-wide MIN evaluation: the routing state is a stack of
``(n_conferences, n_rows)`` numpy arrays — one per level — where entry
``[c, r]`` is the member bitmask of conference ``c`` present on row
``r``.  One gather + bitwise-OR per stage replaces the per-signal
propagation loop, and tap selection / backward marking reduce to array
comparisons.

The contract is **byte-identity** with the sequential core, not mere
equality: the produced :class:`~repro.core.routing.Route` objects build
their ``levels`` and ``taps`` dicts in the *same insertion order* the
sequential algorithm uses, so ``repr``, JSON serialization, frozenset
iteration of ``Route.links`` — and therefore every downstream
order-sensitive decision (admission capacity messages, the worst-case
search's ``max(loads.items())`` target pick) — are indistinguishable
from the per-object path.  The differential grid in
``tests/core/test_batch_differential.py`` holds the kernel against
:func:`~repro.core.routing.route_conference_sequential` (the per-object
oracle the kernel replaced) across topologies, policies, fault sets,
pinned taps and batch shapes.

Churn routes through it too: :func:`~repro.core.churn.extend_route`
passes the continuing members' taps as ``pins``.  ``faults`` may give
each conference its own fault set: the backup-plan sweep of
:class:`~repro.core.healing.SelfHealingController` routes every
``(conference, faults | {point})`` plan in one call that way.  Dead
points become ``(conference, row)`` cells per level — a shared set is
broadcast to every conference — and one masking path zeroes them in
the forward and backward passes.  Two inputs fall back to the
sequential path per conference (pins and own fault set included), with
identical outcomes: conferences of more than
:data:`MAX_KERNEL_MEMBERS` members (their masks overflow the int64
columns) and any batch routed under ``policy.prune=True`` (the greedy
ablation is inherently sequential).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from collections.abc import Set as AbstractSet
from dataclasses import dataclass

import numpy as np

from repro.core.conference import Conference
from repro.core.conflict import ConflictReport
from repro.core.routing import (
    Route,
    RoutingPolicy,
    TapPolicy,
    UnroutableError,
    route_conference_sequential,
)
from repro.obs.metrics import timed
from repro.topology.network import MultistageNetwork, Point
from repro.util.bits import pack_rows

__all__ = [
    "MAX_KERNEL_MEMBERS",
    "BatchRouteOutcome",
    "route_batch",
    "stage_occupancy",
    "occupancy_words",
    "analyze_conflicts_columnar",
]

#: Largest conference the int64 mask columns can represent (bit ``i`` of
#: a column is member ``i``; ``1 << 62`` is the last in-range weight).
MAX_KERNEL_MEMBERS = 63

#: Soft bound on ``n_conferences * n_rows`` cells held live per level;
#: larger batches are routed in chunks so memory stays flat.
_MAX_CELLS = 1 << 18

_NO_FAULTS: frozenset = frozenset()

@dataclass(frozen=True)
class BatchRouteOutcome:
    """One conference's result within a :func:`route_batch` call.

    Exactly one of ``route`` / ``error`` is set; ``error`` carries the
    same exception (type and message) the sequential
    :func:`~repro.core.routing.route_conference` call would have raised.
    """

    conference: Conference
    route: "Route | None" = None
    error: "ValueError | None" = None

    @property
    def ok(self) -> bool:
        """True when the conference was routed."""
        return self.route is not None

    def unwrap(self) -> Route:
        """The route, or (re-)raise the recorded routing error."""
        if self.route is not None:
            return self.route
        raise type(self.error)(*self.error.args)


@timed("repro_route_batch")
def route_batch(
    net: MultistageNetwork,
    conferences: "Sequence[Conference] | Iterable[Conference]",
    policy: "RoutingPolicy | None" = None,
    faults: "frozenset | Sequence[frozenset | None] | None" = None,
    *,
    pins: "Sequence[Mapping[int, int] | None] | None" = None,
) -> list[BatchRouteOutcome]:
    """Route every conference of a batch; order is preserved.

    Semantics per conference are exactly those of
    :func:`~repro.core.routing.route_conference` under the same ``net``,
    ``policy`` and ``faults`` — routing is a pure per-conference
    function, so batching changes when the work happens, never the
    result.  Failures (``UnroutableError`` under faults, ``ValueError``
    for out-of-range members) are captured per conference instead of
    aborting the batch.

    ``faults`` is one set of dead points shared by the whole batch, or
    a sequence with one fault set (or ``None``) per conference, the
    same shape as ``pins``: conference ``i`` is then routed exactly as
    ``route_conference(net, conf_i, policy, faults_i)``.

    ``pins`` gives each conference ``{port: level}`` taps to keep (or
    ``None``): a pin replaces the member's natural tap when the full
    combination reaches the pinned point.  Pins never change whether a
    conference is routable.
    """
    policy = policy or RoutingPolicy()
    confs = list(conferences)
    dead = _fault_sets(faults, len(confs))
    pins = [None] * len(confs) if pins is None else list(pins)
    if len(pins) != len(confs):
        raise ValueError(f"got {len(pins)} pin maps for {len(confs)} conferences")
    if any(not 0 <= t <= net.n_stages for pin_map in pins if pin_map for t in pin_map.values()):
        raise ValueError(f"pinned tap levels must lie in 0..{net.n_stages}")
    if policy.prune:
        return [
            _route_one(net, conf, policy, fs, pin_map)
            for conf, fs, pin_map in zip(confs, dead, pins)
        ]
    outcomes: "list[BatchRouteOutcome | None]" = [None] * len(confs)
    kernel_idx: list[int] = []
    for i, conf in enumerate(confs):
        if conf.members[-1] >= net.n_ports:
            outcomes[i] = BatchRouteOutcome(
                conf,
                error=ValueError(
                    f"conference member {conf.members[-1]} out of range for "
                    f"{net.n_ports}-port network"
                ),
            )
        elif len(conf.members) > MAX_KERNEL_MEMBERS:
            outcomes[i] = _route_one(net, conf, policy, dead[i], pins[i])
        else:
            kernel_idx.append(i)
    chunk = max(1, _MAX_CELLS // net.n_ports)
    for start in range(0, len(kernel_idx), chunk):
        part = kernel_idx[start : start + chunk]
        routed = _kernel(
            net,
            [confs[i] for i in part],
            policy,
            [dead[i] for i in part],
            [pins[i] for i in part],
        )
        for i, outcome in zip(part, routed):
            outcomes[i] = outcome
    return outcomes  # type: ignore[return-value]


def _route_one(
    net: MultistageNetwork,
    conf: Conference,
    policy: RoutingPolicy,
    dead: frozenset,
    pins: "Mapping[int, int] | None",
) -> BatchRouteOutcome:
    """The sequential walk wrapped in a per-conference outcome.

    Calls :func:`route_conference_sequential` directly — the public
    :func:`~repro.core.routing.route_conference` delegates *here* as a
    batch of one, so routing through it again would recurse.
    """
    try:
        route = route_conference_sequential(net, conf, policy, faults=dead or None, pins=pins)
        return BatchRouteOutcome(conf, route=route)
    except ValueError as exc:  # UnroutableError is a ValueError subclass
        return BatchRouteOutcome(conf, error=exc)


def _fault_sets(
    faults: "frozenset | Sequence[frozenset | None] | None", n_conf: int
) -> list[frozenset]:
    """``route_batch``'s ``faults`` as one fault set per conference.

    A list or tuple whose items are all sets (or ``None``) gives one
    set per conference; anything else is one set of points shared by
    the batch (the same object repeated).
    """
    if (
        isinstance(faults, (list, tuple))
        and faults
        and all(fs is None or isinstance(fs, AbstractSet) for fs in faults)
    ):
        if len(faults) != n_conf:
            raise ValueError(f"got {len(faults)} fault sets for {n_conf} conferences")
        return [frozenset(fs) if fs else _NO_FAULTS for fs in faults]
    return [frozenset(faults) if faults else _NO_FAULTS] * n_conf


def _dead_cells(
    fault_sets: list[frozenset], n_stages: int, n_rows: int
) -> "list[tuple[np.ndarray, np.ndarray] | None]":
    """Per level, the ``(conference, row)`` cells the fault sets kill.

    Conferences sharing one fault set are grouped, so a set shared by
    the whole batch is parsed once and broadcast to every conference.
    """
    groups: dict[frozenset, list[int]] = {}
    for c, fs in enumerate(fault_sets):
        if fs:
            groups.setdefault(fs, []).append(c)
    cells: dict[int, tuple[list, list]] = {}
    for fs, sharing in groups.items():
        rows_at: dict[int, list[int]] = {}
        for level, row in fs:
            if 0 <= level <= n_stages and 0 <= row < n_rows:
                rows_at.setdefault(level, []).append(row)
        group = np.asarray(sharing, dtype=np.int64)
        for level, rows in rows_at.items():
            confs_at, rows_of = cells.setdefault(level, ([], []))
            confs_at.append(np.repeat(group, len(rows)))
            rows_of.append(np.tile(np.asarray(rows, dtype=np.int64), len(group)))
    out: "list[tuple[np.ndarray, np.ndarray] | None]" = [None] * (n_stages + 1)
    for level, (confs_at, rows_of) in cells.items():
        out[level] = (np.concatenate(confs_at), np.concatenate(rows_of))
    return out


def _kernel(
    net: MultistageNetwork,
    confs: list[Conference],
    policy: RoutingPolicy,
    dead: list[frozenset],
    pins: "list[Mapping[int, int] | None]",
) -> list[BatchRouteOutcome]:
    """The columnar forward/tap/backward sweep over one chunk."""
    n_rows, n_stages, radix = net.n_ports, net.n_stages, net.radix
    n_conf = len(confs)
    succ, pred = net.successor_table, net.predecessor_table
    dead_cells = _dead_cells(dead, n_stages, n_rows)

    member_lists = [c.members for c in confs]
    sizes = np.fromiter((len(m) for m in member_lists), dtype=np.int64, count=n_conf)
    total = int(sizes.sum())
    members = np.fromiter(
        (p for mem in member_lists for p in mem), dtype=np.int64, count=total
    )
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    conf_of = np.repeat(np.arange(n_conf, dtype=np.int64), sizes)
    # Bit weight of member i is its index within its conference.
    idx_in_conf = np.arange(total, dtype=np.int64) - offsets[conf_of]
    weights = np.left_shift(np.int64(1), idx_in_conf)
    # Through uint64 so a 63-member conference's full mask (2**63 - 1)
    # does not overflow the shift.
    full = (np.left_shift(np.uint64(1), sizes.astype(np.uint64)) - 1).astype(np.int64)

    # Forward pass: masks[t][c, r] = members of conference c whose signal
    # can be present at point (t, r) through surviving paths.
    cur = np.zeros((n_conf, n_rows), dtype=np.int64)
    cur[conf_of, members] = weights
    if dead_cells[0] is not None:
        cur[dead_cells[0]] = 0
    masks = [cur]
    for s in range(n_stages):
        nxt = cur[:, pred[s, :, 0]]
        for side in range(1, radix):
            nxt = nxt | cur[:, pred[s, :, side]]
        if dead_cells[s + 1] is not None:
            nxt[dead_cells[s + 1]] = 0
        masks.append(nxt)
        cur = nxt

    # Tap selection: ok[t, i] = level t carries the full combination on
    # member i's own row.
    ok = np.stack([m[conf_of, members] for m in masks]) == full[conf_of]
    if policy.tap_policy is TapPolicy.FINAL:
        member_ok = ok[n_stages]
        taps_of_member = np.full(len(members), n_stages, dtype=np.int64)
    else:
        member_ok = ok.any(axis=0)
        taps_of_member = ok.argmax(axis=0)
    if any(pins):
        # A pin (-1: none) replaces the tap where the full mask reaches it.
        pinned = np.fromiter(
            (m.get(p, -1) if m else -1 for m, mem in zip(pins, member_lists) for p in mem),
            dtype=np.int64,
            count=total,
        )
        held = (pinned >= 0) & ok[pinned, np.arange(total)]
        taps_of_member = np.where(held, pinned, taps_of_member)
    routable = np.logical_and.reduceat(member_ok, offsets[:-1])
    # First failing member per conference, in member order (the sequential
    # loop raises at exactly that member).
    first_bad = np.minimum.reduceat(
        np.where(member_ok, len(members), np.arange(len(members))), offsets[:-1]
    )

    outcomes: "list[BatchRouteOutcome | None]" = [None] * n_conf
    for c in np.flatnonzero(~routable):
        port = confs[c].members[int(first_bad[c]) - int(offsets[c])]
        if policy.tap_policy is TapPolicy.FINAL:
            err = UnroutableError(
                f"conference cannot be combined at final-stage output {port}"
            )
        else:
            err = UnroutableError(
                f"no surviving level combines the full conference on row {port}"
            )
        outcomes[c] = BatchRouteOutcome(confs[c], error=err)

    # Backward pass: marked[t][c, r] = some tap of c is reachable from
    # (t, r) through surviving points.
    live = member_ok & routable[conf_of]
    marked = [np.zeros((n_conf, n_rows), dtype=bool) for _ in range(n_stages + 1)]
    for t in np.unique(taps_of_member[live]):
        sel = live & (taps_of_member == t)
        marked[t][conf_of[sel], members[sel]] = True
    for t in range(n_stages, 0, -1):
        below = marked[t]
        prev = below[:, succ[t - 1, :, 0]]
        for side in range(1, radix):
            prev = prev | below[:, succ[t - 1, :, side]]
        if dead_cells[t - 1] is not None:
            prev[dead_cells[t - 1]] = 0
        marked[t - 1] |= prev

    # Used region + sequential insertion order.  The sequential algorithm
    # builds each level's dict by iterating the previous level's dict in
    # *its* order and the switch sides in table order; replaying that
    # first-touch order here makes the dicts byte-identical, not merely
    # equal (frozenset iteration of Route.links then matches too).
    level_points: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    used0 = (masks[0] != 0) & marked[0]
    keep = used0[conf_of, members]
    confs_t, rows_t = conf_of[keep], members[keep]
    level_points.append((confs_t, rows_t, masks[0][confs_t, rows_t]))
    for t in range(n_stages):
        used_next = (masks[t + 1] != 0) & marked[t + 1]
        cand_rows = succ[t, rows_t, :].reshape(-1)
        cand_confs = np.repeat(confs_t, radix)
        keys = cand_confs * n_rows + cand_rows
        uniq, first = np.unique(keys, return_index=True)
        ok_next = used_next[uniq // n_rows, uniq % n_rows]
        uniq, first = uniq[ok_next], first[ok_next]
        order = np.argsort(first, kind="stable")
        keys_next = uniq[order]
        confs_t, rows_t = keys_next // n_rows, keys_next % n_rows
        level_points.append((confs_t, rows_t, masks[t + 1][confs_t, rows_t]))

    # Materialize Route objects (plain-int dicts, matching the sequential path field for field).
    # Whole-level ``tolist`` conversions up front: per-conference numpy
    # slicing would cost more than the kernel itself on small networks.
    per_level = [
        (
            np.searchsorted(lvl_confs, np.arange(n_conf + 1)).tolist(),
            lvl_rows.tolist(),
            lvl_masks.tolist(),
        )
        for lvl_confs, lvl_rows, lvl_masks in level_points
    ]
    tap_list = taps_of_member.tolist()
    offset_list = offsets.tolist()
    for c in range(n_conf):
        if outcomes[c] is not None:
            continue
        conf = confs[c]
        levels = []
        for bounds, lvl_rows, lvl_masks in per_level:
            lo, hi = bounds[c], bounds[c + 1]
            levels.append(dict(zip(lvl_rows[lo:hi], lvl_masks[lo:hi])))
        taps = dict(zip(conf.members, tap_list[offset_list[c] : offset_list[c + 1]]))
        # Direct field assembly: Route's frozen-dataclass __init__ costs
        # five object.__setattr__ calls per instance, measurable at this
        # volume; the resulting object is indistinguishable.
        route = object.__new__(Route)
        route.__dict__.update(
            conference=conf,
            n_ports=n_rows,
            n_stages=n_stages,
            levels=tuple(levels),
            taps=taps,
        )
        outcomes[c] = BatchRouteOutcome(conf, route=route)
    return outcomes  # type: ignore[return-value]


# -- columnar conflict accounting ------------------------------------------


def stage_occupancy(
    routes: Iterable[Route], n_stages: int, n_rows: int
) -> np.ndarray:
    """Stage-major link-load matrix: ``[t, r]`` counts the routes using
    the link entering ``(t, r)``.

    Row 0 (the injection level) is always zero — injections are ports,
    not links — so the matrix aligns index-for-index with point
    coordinates.  Each route is charged through its cached
    :attr:`~repro.core.routing.Route.link_index`, the same walk the
    admission ledger (which holds this matrix live) uses.  Agrees
    entry-wise with :func:`~repro.core.conflict.link_loads` (the
    property suite checks this against random batches).
    """
    loads = np.zeros((n_stages + 1) * n_rows, dtype=np.int64)
    for route in routes:
        index = route.link_index
        if route.n_ports != n_rows:  # re-stride onto the wider matrix
            index = index // route.n_ports * n_rows + index % route.n_ports
        loads[index] += 1
    return loads.reshape(n_stages + 1, n_rows)


def occupancy_words(loads: np.ndarray) -> tuple[int, ...]:
    """Per-level occupancy bitsets: bit ``r`` of word ``t`` is set when
    some route uses the link entering ``(t, r)``.

    The words round-trip through :func:`repro.util.bits.unpack_rows`
    losslessly (a hypothesis property), giving a compact stage-major
    fingerprint of which links a batch touches.
    """
    return tuple(pack_rows(np.flatnonzero(level).tolist()) for level in loads)


def analyze_conflicts_columnar(
    routes: Sequence[Route],
    n_stages: "int | None" = None,
    n_rows: "int | None" = None,
) -> ConflictReport:
    """Columnar :func:`~repro.core.conflict.analyze_conflicts`.

    Builds the same :class:`~repro.core.conflict.ConflictReport` —
    field-for-field equal, including the worst-link tie-break
    (lexicographically smallest among max-load links) — from the
    stage-major load matrix instead of a Counter walk.
    """
    routes = list(routes)
    if n_stages is None:
        if not routes:
            raise ValueError("n_stages is required for an empty route collection")
        n_stages = routes[0].n_stages
    for r in routes:
        if r.n_stages != n_stages:
            raise ValueError("routes come from networks with different stage counts")
    if n_rows is None:
        n_rows = max((r.n_ports for r in routes), default=1)
    loads = stage_occupancy(routes, n_stages, n_rows)
    worst_load = int(loads.max()) if routes else 0
    worst: "Point | None" = None
    if worst_load > 0:
        level, row = np.argwhere(loads == worst_load)[0]
        worst = (int(level), int(row))
    profile = tuple(int(v) for v in loads[1:].max(axis=1)) if n_stages else ()
    positive = loads[loads > 0]
    values, counts = np.unique(positive, return_counts=True)
    return ConflictReport(
        n_conferences=len(routes),
        n_stages=n_stages,
        max_multiplicity=worst_load,
        worst_link=worst,
        stage_profile=profile,
        load_histogram=tuple(
            (int(v), int(c)) for v, c in zip(values, counts)
        ),
        total_links_used=int(np.count_nonzero(loads)),
    )
