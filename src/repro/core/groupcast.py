"""General group connections: many-to-many, multicast, and conference.

The paper frames conferencing inside the broader space of *group
communication*: "messages from one or more sender(s) are delivered to a
large number of receivers".  This module implements that general object
— a :class:`GroupConnection` with independent sender and receiver sets —
on the same fabric and with the same two-sweep self-routing:

* senders inject; switches combine senders' signals;
* each *receiver* taps the earliest link on its own row carrying the
  combination of **all senders**.

Special cases: ``senders == receivers`` is the paper's conference;
``len(senders) == 1`` is multicast; ``receivers ⊂ senders`` is a
broadcast bus with passive talkers.  Routes expose the same ``links`` /
``n_stages`` interface as conference routes, so conflict analysis and
slot scheduling work unchanged on mixed traffic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.routing import LinkWalk
from repro.topology.network import MultistageNetwork
from repro.util.validation import check_ports

__all__ = ["GroupConnection", "GroupRoute", "route_group"]


@dataclass(frozen=True)
class GroupConnection:
    """A group-communication request: who talks, who listens.

    Senders and receivers may overlap arbitrarily; both must be
    non-empty.  A port may appear in both roles (a conference member).
    """

    senders: tuple[int, ...]
    receivers: tuple[int, ...]
    connection_id: int = 0

    def __post_init__(self) -> None:
        if not self.senders:
            raise ValueError("a group connection needs at least one sender")
        if not self.receivers:
            raise ValueError("a group connection needs at least one receiver")
        object.__setattr__(self, "senders", tuple(sorted(set(self.senders))))
        object.__setattr__(self, "receivers", tuple(sorted(set(self.receivers))))

    @staticmethod
    def multicast(source: int, destinations: Iterable[int], connection_id: int = 0) -> "GroupConnection":
        """One sender, many receivers."""
        return GroupConnection((source,), tuple(destinations), connection_id)

    @staticmethod
    def conference(members: Iterable[int], connection_id: int = 0) -> "GroupConnection":
        """Everyone talks, everyone listens — the paper's object."""
        members = tuple(members)
        return GroupConnection(members, members, connection_id)

    @property
    def is_conference(self) -> bool:
        """True when senders and receivers coincide."""
        return self.senders == self.receivers

    @property
    def is_multicast(self) -> bool:
        """True for single-sender connections."""
        return len(self.senders) == 1

    @property
    def ports(self) -> frozenset[int]:
        """All ports the connection touches in either role."""
        return frozenset(self.senders) | frozenset(self.receivers)


@dataclass(frozen=True)
class GroupRoute(LinkWalk):
    """Realization of a group connection; interface-compatible with
    :class:`~repro.core.routing.Route` for conflict accounting."""

    connection: GroupConnection
    n_ports: int
    n_stages: int
    levels: tuple[dict[int, int], ...]
    taps: dict[int, int]

    # -- fabric adapter (shared with Route) ------------------------------

    @property
    def channel_id(self) -> int:
        """Channel identifier on dilated links (the connection id)."""
        return self.connection.connection_id

    @property
    def injections(self) -> tuple[int, ...]:
        """Ports that transmit into the fabric (the senders)."""
        return self.connection.senders

    @property
    def expected_delivery(self) -> frozenset[int]:
        """What each tap must receive: every sender's signal."""
        return frozenset(self.connection.senders)

    @property
    def exclusive_ports(self) -> frozenset[int]:
        """Ports this connection claims exclusively."""
        return self.connection.ports

    @property
    def depth(self) -> int:
        """Deepest tap level."""
        return max(self.taps.values())

    def mask_at(self, level: int, row: int) -> int:
        """Sender bitmask carried at ``(level, row)``."""
        return self.levels[level].get(row, 0)


def route_group(
    net: MultistageNetwork,
    connection: GroupConnection,
    earliest_taps: bool = True,
) -> GroupRoute:
    """Route a group connection through ``net``.

    Same two sweeps as conference routing, with taps on *receiver* rows:
    forward sender-mask propagation, per-receiver earliest (or final)
    tap, backward usefulness marking.  Raises ``ValueError`` when some
    receiver can never hear every sender (impossible on full-access
    networks).
    """
    check_ports(connection.senders, net.n_ports, "senders")
    check_ports(connection.receivers, net.n_ports, "receivers")
    full = (1 << len(connection.senders)) - 1
    tab = net.successor_table

    levels: list[dict[int, int]] = [
        {port: 1 << idx for idx, port in enumerate(connection.senders)}
    ]
    cur = levels[0]
    for s in range(net.n_stages):
        nxt: dict[int, int] = {}
        for row, mask in cur.items():
            for side in range(tab.shape[2]):
                r2 = int(tab[s, row, side])
                nxt[r2] = nxt.get(r2, 0) | mask
        levels.append(nxt)
        cur = nxt

    taps: dict[int, int] = {}
    for port in connection.receivers:
        if earliest_taps:
            for t in range(net.n_stages + 1):
                if levels[t].get(port, 0) == full:
                    taps[port] = t
                    break
            else:
                raise ValueError(
                    f"receiver {port} can never hear all senders "
                    f"{connection.senders} in {net.name}"
                )
        else:
            if levels[net.n_stages].get(port, 0) != full:
                raise ValueError(
                    f"receiver {port} cannot combine all senders at the outputs"
                )
            taps[port] = net.n_stages

    # Backward usefulness sweep.
    ptab = net.predecessor_table
    marked: list[set[int]] = [set() for _ in range(net.n_stages + 1)]
    for port, t in taps.items():
        marked[t].add(port)
    for t in range(net.n_stages, 0, -1):
        for row in marked[t]:
            for side in range(ptab.shape[2]):
                marked[t - 1].add(int(ptab[t - 1, row, side]))

    used = [
        {row: mask for row, mask in levels[t].items() if row in marked[t]}
        for t in range(net.n_stages + 1)
    ]
    route = GroupRoute(
        connection=connection,
        n_ports=net.n_ports,
        n_stages=net.n_stages,
        levels=tuple(used),
        taps=taps,
    )
    bad = [p for p, t in taps.items() if route.mask_at(t, p) != full]
    if bad:
        raise AssertionError(f"group routing invariant violated at taps {bad}")
    return route
