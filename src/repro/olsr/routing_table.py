"""Per-node routing-table computation.

An OLSR node computes next hops from what it knows: its own links (neighbor table) plus the
TC-learned advertised topology.  The original protocol uses hop count; the QoS variants use
the QoS metric, which is what this implementation does: :func:`best_next_hop` is the
next-hop rule, and the simulator's nodes use it to forward data packets hop by hop.

:meth:`RoutingTable.recompute` only takes a snapshot of the tables -- a link map of the
node's knowledge and its compact graph; each query solves the one destination it asks for
over that snapshot.  An answer is therefore a pure function of the tables as they stood at
the last ``recompute``, whenever it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.localview.compactgraph import CompactGraph
from repro.localview.paths import best_values_from
from repro.localview.view import Links
from repro.metrics.base import Metric
from repro.metrics.ordering import preferred_neighbor
from repro.olsr.neighbor_table import NeighborTable
from repro.olsr.topology_table import TopologyTable
from repro.utils.ids import NodeId


def best_next_hop(
    solver_graph: CompactGraph,
    owner: NodeId,
    destination: NodeId,
    direct: Mapping[NodeId, float],
    metric: Metric,
) -> Optional[Tuple[NodeId, float]]:
    """The neighbor ``owner`` forwards to for ``destination``, with the path value it expects.

    ``solver_graph`` is the topology the owner knows, as a :class:`CompactGraph` under
    ``metric``; it must contain ``destination``.  ``direct`` maps each one-hop neighbor to
    the value of the owner's link to it; candidates are scanned in its order.  A
    neighbor's value is its link combined with the best path from it to ``destination``
    over ``solver_graph`` minus the owner (the rest of the path cannot revisit it).  Among
    the neighbors achieving the optimal value, the fewest hops over ``solver_graph``
    minus the owner win, then the better direct link, then the smaller
    identifier.  The hop tie-break matters in practice: bottleneck metrics produce many
    equally wide next hops, and preferring hop progress is what keeps independent per-node
    decisions from bouncing a packet back and forth (QOLSR's own route computation also
    keeps hop-shortest among the QoS-optimal routes).  None when the optimum is unusable or
    no neighbor leads anywhere.
    """
    from_destination = best_values_from(solver_graph, destination, metric, excluded=(owner,))
    index = solver_graph.index
    adj = solver_graph.adj
    skipped = index.get(owner)
    frontier = [index[destination]]
    distance: Dict[int, float] = {frontier[0]: 0.0}
    while frontier:  # breadth-first hop distances from the destination, owner excluded
        next_frontier = []
        for i in frontier:
            for j, _ in adj[i]:
                if j != skipped and j not in distance:
                    distance[j] = distance[i] + 1.0
                    next_frontier.append(j)
        frontier = next_frontier

    candidates: Dict[NodeId, Tuple[float, float]] = {}
    for neighbor, link_value in direct.items():
        start = metric.combine(metric.identity, link_value)
        if neighbor == destination:
            candidates[neighbor] = (start, 1.0)
            continue
        remainder = from_destination.get(neighbor)
        if remainder is not None:
            hop_estimate = 1.0 + distance.get(index[neighbor], float("inf"))
            candidates[neighbor] = (metric.combine(start, remainder), hop_estimate)

    if not candidates:
        return None
    best_value = metric.optimum(value for value, _ in candidates.values())
    if not metric.is_usable(best_value):
        return None
    best_candidates = {
        neighbor: hops
        for neighbor, (value, hops) in candidates.items()
        if metric.values_equal(value, best_value)
    }
    fewest_hops = min(best_candidates.values())
    shortlist = [neighbor for neighbor, hops in best_candidates.items() if hops == fewest_hops]
    return preferred_neighbor(shortlist, metric, direct.__getitem__), best_value


@dataclass(frozen=True)
class RouteEntry:
    """One routing-table row: destination, chosen next hop and the expected path value."""

    destination: NodeId
    next_hop: NodeId
    expected_value: float


class RoutingTable:
    """Next hops computed on demand from a snapshot of the node's own knowledge."""

    def __init__(self, owner: NodeId, metric: Metric):
        self.owner = owner
        self.metric = metric
        self._knowledge: Links = {}
        self._solver_graph: Optional[CompactGraph] = None  # set by recompute
        self._direct: Dict[NodeId, float] = {}

    # ------------------------------------------------------------------ computation

    def recompute(self, neighbors: NeighborTable, topology: TopologyTable) -> None:
        """Snapshot the current neighbor and topology tables; queries answer from it."""
        metric = self.metric
        knowledge = self._knowledge_links(neighbors, topology)
        owner_row = knowledge[self.owner]
        self._knowledge = knowledge
        # One flat snapshot serves every per-destination solve (excluded nodes are handled
        # at solver level).
        self._solver_graph = CompactGraph.from_links(knowledge, metric)
        self._direct = {
            neighbor: metric.link_value_from_attributes(owner_row[neighbor])
            for neighbor in neighbors.neighbors()
            if neighbor in owner_row
        }

    def _knowledge_links(self, neighbors: NeighborTable, topology: TopologyTable) -> Links:
        """The node's knowledge as a link map: the advertised links, the owner, its HELLO
        links (a known link's weights are updated in place) and the two-hop reports of
        links not yet known."""
        links: Links = {}
        for (u, v), weights in topology.advertised_links().items():
            _add_link(links, u, v, weights)
        links.setdefault(self.owner, {})
        for neighbor, weights in neighbors.neighbor_link_table().items():
            _add_link(links, self.owner, neighbor, weights)
        # Two-hop reports give additional usable links around the owner.
        for neighbor, reported in neighbors.two_hop_link_table().items():
            for other, weights in reported.items():
                if other not in links.get(neighbor, ()):
                    _add_link(links, neighbor, other, weights)
        return links

    # ------------------------------------------------------------------ queries

    def entry(self, destination: NodeId) -> Optional[RouteEntry]:
        """The route to ``destination`` as of the last :meth:`recompute` (None if none)."""
        if destination == self.owner or destination not in self._knowledge:
            return None
        chosen = best_next_hop(
            self._solver_graph, self.owner, destination, self._direct, self.metric
        )
        return RouteEntry(destination, *chosen) if chosen is not None else None

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        entry = self.entry(destination)
        return entry.next_hop if entry else None

    def destinations(self) -> list[NodeId]:
        """Every reachable destination, sorted (solves each node of the snapshot)."""
        return sorted(node for node in self._knowledge if self.entry(node) is not None)

    def __len__(self) -> int:
        return len(self.destinations())


def _add_link(links: Links, u: NodeId, v: NodeId, weights: Mapping[str, float]) -> None:
    """Add link ``(u, v)`` to ``links``, creating ``u`` then ``v`` if missing: a known
    link's attribute dict is updated in place and keeps its place in both rows, a new link
    gets a copy of ``weights``."""
    row = links.setdefault(u, {})
    links.setdefault(v, {})
    if v in row:
        row[v].update(weights)
    else:
        row[v] = links[v][u] = dict(weights)
