"""Topology table, populated from flooded TC messages.

Each TC from an originator ``o`` advertises links ``(o, s)`` towards the nodes ``s`` that
selected ``o`` (its advertised/MPR selectors), together with their QoS in the QOLSR
extension.  The union of the freshest such announcements is the partial topology every node
routes on.

Entries are kept in one insertion-ordered dict (routing reads them in that order), each
as the advertised weights and an expiry time.  The weights are the TC's own dicts:
messages are immutable values, the table never changes them and never hands them out,
so ingest copies nothing and every query that returns weights returns copies.  An
entry's ANSN is its originator's latest, since a newer announcement replaces all of the
originator's entries.  An originator -> selectors index lets a newer announcement delete
just that originator's entries, and an earliest-expiry bound lets
:meth:`TopologyTable.expire` return at once while no entry can have expired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Set, Tuple

from repro.olsr.messages import TcMessage
from repro.utils.ids import NodeId


@dataclass
class TopologyEntry:
    """One advertised link: originator -> selector, with its QoS weights and freshness."""

    originator: NodeId
    selector: NodeId
    weights: Dict[str, float]
    ansn: int
    expires_at: float = math.inf


class TopologyTable:
    """A node's TC-learned view of the rest of the network."""

    def __init__(self, owner: NodeId):
        self.owner = owner
        # (originator, selector) -> (advertised weights, expiry time).
        self._entries: Dict[Tuple[NodeId, NodeId], Tuple[Mapping[str, float], float]] = {}
        self._latest_ansn: Dict[NodeId, int] = {}
        # originator -> the selectors it has entries for (the keys of its entries).
        self._selectors: Dict[NodeId, Set[NodeId]] = {}
        # No entry expires before this time (a lower bound, exact after each purge).
        self._earliest_expiry = math.inf

    # ------------------------------------------------------------------ updates

    def update_from_tc(self, tc: TcMessage, now: float = 0.0, hold_time: float = math.inf) -> bool:
        """Process a TC message.  Returns False when it was stale and ignored."""
        originator = tc.originator
        latest = self._latest_ansn.get(originator)
        if latest is not None and tc.ansn < latest:
            return False
        entries = self._entries
        selectors = self._selectors.setdefault(originator, set())
        if latest is None or tc.ansn > latest:
            # Newer announcement: forget everything previously advertised by this
            # originator.  Other entries keep their places; the new ones go last.
            for selector in selectors:
                del entries[(originator, selector)]
            selectors.clear()
            self._latest_ansn[originator] = tc.ansn
        expires = now + hold_time if math.isfinite(hold_time) else math.inf
        for link in tc.advertised:
            selector = link.selector
            entries[(originator, selector)] = (link.weights, expires)
            selectors.add(selector)
        if expires < self._earliest_expiry:
            self._earliest_expiry = expires
        return True

    def expire(self, now: float) -> None:
        """Drop entries whose validity time has passed."""
        if self._earliest_expiry > now:
            return
        kept: Dict[Tuple[NodeId, NodeId], Tuple[Mapping[str, float], float]] = {}
        for key, entry in self._entries.items():
            if entry[1] > now:
                kept[key] = entry
            else:
                self._selectors[key[0]].discard(key[1])
        self._entries = kept
        self._earliest_expiry = min((expires for _, expires in kept.values()), default=math.inf)

    # ------------------------------------------------------------------ queries

    def entries(self) -> List[TopologyEntry]:
        """Every entry, in table order (each with a copy of its weights)."""
        latest = self._latest_ansn
        return [
            TopologyEntry(originator, selector, dict(weights), latest[originator], expires)
            for (originator, selector), (weights, expires) in self._entries.items()
        ]

    def advertised_links(self) -> Dict[Tuple[NodeId, NodeId], Dict[str, float]]:
        """Every advertised link (undirected canonical orientation) with a copy of its weights."""
        return {
            (originator, selector) if originator <= selector else (selector, originator): dict(weights)
            for (originator, selector), (weights, _) in self._entries.items()
        }

    def advertised_link_keys(self) -> FrozenSet[Tuple[NodeId, NodeId]]:
        """The keys of :meth:`advertised_links`, with no weights copied."""
        return frozenset(
            (originator, selector) if originator <= selector else (selector, originator)
            for originator, selector in self._entries
        )

    def __len__(self) -> int:
        return len(self._entries)
