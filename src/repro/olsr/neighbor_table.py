"""Neighbor and two-hop neighbor tables, populated from HELLO messages.

Each entry carries an expiry time so that the discrete-event simulation behaves correctly
when nodes disappear (entries simply age out); the static graph-level experiments never
expire anything because they query the converged state.  An earliest-expiry bound lets
:meth:`NeighborTable.expire` return at once while no entry can have expired, and the
MPR-selector set is cached until the table changes.

Two-hop entries are indexed by the neighbor whose HELLO reported them: a HELLO replaces
just its originator's entry.  An entry holds the HELLO's own weight dicts (messages are
immutable values; the table never changes them and never hands them out), and every
query returns copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Set

from repro.localview.view import LocalView
from repro.olsr.messages import HelloMessage
from repro.utils.ids import NodeId


@dataclass
class NeighborEntry:
    """State kept about one symmetric one-hop neighbor."""

    neighbor: NodeId
    weights: Dict[str, float]
    expires_at: float = math.inf
    is_mpr_selector: bool = False
    """True when the neighbor's last HELLO declared this node as one of its MPRs."""


@dataclass
class TwoHopEntry:
    """The links (neighbor -> two-hop neighbor) that a neighbor's last HELLO reported."""

    neighbor: NodeId
    links: Mapping[NodeId, Mapping[str, float]]
    """Each reported neighbor (the owner excluded) with the reported link weights."""
    expires_at: float = math.inf


class NeighborTable:
    """The owner's knowledge of its one- and two-hop neighborhood."""

    def __init__(self, owner: NodeId):
        self.owner = owner
        self._neighbors: Dict[NodeId, NeighborEntry] = {}
        # reporting neighbor -> its last HELLO's links, in the order the HELLOs arrived.
        self._two_hop: Dict[NodeId, TwoHopEntry] = {}
        # No entry expires before this time (a lower bound, exact after each purge).
        self._earliest_expiry = math.inf
        self._mpr_selectors: Optional[FrozenSet[NodeId]] = None

    # ------------------------------------------------------------------ updates

    def record_link(
        self,
        neighbor: NodeId,
        weights: Mapping[str, float],
        expires_at: float = math.inf,
        is_mpr_selector: Optional[bool] = None,
    ) -> None:
        """Record (or refresh) the direct link to ``neighbor``."""
        entry = self._neighbors.get(neighbor)
        if entry is None:
            entry = NeighborEntry(neighbor=neighbor, weights=dict(weights), expires_at=expires_at)
            self._neighbors[neighbor] = entry
        else:
            entry.weights = dict(weights)
            entry.expires_at = max(entry.expires_at, expires_at) if math.isfinite(entry.expires_at) else expires_at
        if is_mpr_selector is not None:
            entry.is_mpr_selector = is_mpr_selector
        if entry.expires_at < self._earliest_expiry:
            self._earliest_expiry = entry.expires_at
        self._mpr_selectors = None

    def update_from_hello(
        self,
        hello: HelloMessage,
        link_weights: Mapping[str, float],
        now: float = 0.0,
        hold_time: float = math.inf,
    ) -> None:
        """Process a HELLO heard directly from a neighbor.

        ``link_weights`` are the receiver's own measurement of the link to the HELLO's
        originator (QoS measurement is out of the paper's scope; the simulation reads the
        ground-truth weights from the topology).
        """
        originator = hello.originator
        if originator == self.owner:
            return
        expires = now + hold_time if math.isfinite(hold_time) else math.inf
        self.record_link(
            originator,
            link_weights,
            expires_at=expires,
            is_mpr_selector=hello.declares_mpr(self.owner),
        )
        # Replace this originator's two-hop entry; the new one goes last.
        self._two_hop.pop(originator, None)
        links = {report.neighbor: report.weights for report in hello.links if report.neighbor != self.owner}
        if links:
            self._two_hop[originator] = TwoHopEntry(originator, links, expires)
        if expires < self._earliest_expiry:
            self._earliest_expiry = expires

    def expire(self, now: float) -> None:
        """Drop every entry whose validity time has passed.

        Two-hop entries go with their neighbor's entry.  They are only ever recorded
        together with it, so while no entry has expired there is nothing to drop.
        """
        if self._earliest_expiry > now:
            return
        self._neighbors = {
            node: entry for node, entry in self._neighbors.items() if entry.expires_at > now
        }
        self._two_hop = {
            neighbor: entry
            for neighbor, entry in self._two_hop.items()
            if entry.expires_at > now and neighbor in self._neighbors
        }
        self._earliest_expiry = min(
            min((entry.expires_at for entry in self._neighbors.values()), default=math.inf),
            min((entry.expires_at for entry in self._two_hop.values()), default=math.inf),
        )
        self._mpr_selectors = None

    # ------------------------------------------------------------------ queries

    def neighbors(self) -> FrozenSet[NodeId]:
        return frozenset(self._neighbors)

    def neighbor_weights(self, neighbor: NodeId) -> Dict[str, float]:
        return dict(self._neighbors[neighbor].weights)

    def mpr_selectors(self) -> FrozenSet[NodeId]:
        """Neighbors whose last HELLO declared this node as an MPR."""
        if self._mpr_selectors is None:
            self._mpr_selectors = frozenset(
                node for node, entry in self._neighbors.items() if entry.is_mpr_selector
            )
        return self._mpr_selectors

    def two_hop_neighbors(self) -> FrozenSet[NodeId]:
        """Strict two-hop neighbors (excluding the owner and its one-hop neighbors)."""
        one_hop = self._neighbors
        return frozenset(
            node
            for entry in self._two_hop.values()
            for node in entry.links
            if node not in one_hop
        )

    def neighbor_link_table(self) -> Dict[NodeId, Dict[str, float]]:
        """``{neighbor: link weights}`` -- the first argument of :meth:`LocalView.from_tables`."""
        return {node: dict(entry.weights) for node, entry in self._neighbors.items()}

    def two_hop_link_table(self) -> Dict[NodeId, Dict[NodeId, Dict[str, float]]]:
        """``{neighbor: {reported neighbor: link weights}}`` for :meth:`LocalView.from_tables`."""
        return {
            neighbor: {node: dict(weights) for node, weights in entry.links.items()}
            for neighbor, entry in self._two_hop.items()
        }

    def view_key(self) -> tuple:
        """:meth:`LocalView.table_key` of the two link tables, merged from the entries
        without copying them first."""
        return LocalView.table_key(
            self.owner,
            {node: entry.weights for node, entry in self._neighbors.items()},
            {neighbor: entry.links for neighbor, entry in self._two_hop.items()},
        )

    def __len__(self) -> int:
        return len(self._neighbors)
