"""Per-node routing-table computation.

An OLSR node computes next hops from what it knows: its own links (neighbor table) plus the
TC-learned advertised topology.  The original protocol uses hop count; the QoS variants use
the QoS metric, which is what this implementation does -- it is the in-protocol counterpart
of :class:`repro.routing.hop_by_hop.HopByHopRouter`, deciding by the same rule
(:func:`~repro.routing.hop_by_hop.best_next_hop`), and the simulator's nodes use it to
forward data packets.

:meth:`RoutingTable.recompute` only takes a snapshot of the tables; each query solves the
one destination it asks for over that snapshot.  An answer is therefore a pure function of
the tables as they stood at the last ``recompute``, whenever it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import networkx as nx

from repro.localview.compactgraph import CompactGraph
from repro.metrics.base import Metric
from repro.olsr.neighbor_table import NeighborTable
from repro.olsr.topology_table import TopologyTable
from repro.routing.hop_by_hop import best_next_hop
from repro.utils.ids import NodeId


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
        self._knowledge = nx.Graph()
        self._solver_graph: nx.Graph | CompactGraph = self._knowledge
        self._direct: Dict[NodeId, float] = {}

    # ------------------------------------------------------------------ computation

    def recompute(self, neighbors: NeighborTable, topology: TopologyTable) -> None:
        """Snapshot the current neighbor and topology tables; queries answer from it."""
        metric = self.metric
        knowledge = self._knowledge_graph(neighbors, topology)
        # One flat snapshot serves every per-destination solve (excluded nodes are handled
        # at solver level); heterogeneous tables whose merged links miss the metric's
        # attribute fall back to the lazy networkx traversal.
        compact = CompactGraph.try_from_networkx(knowledge, metric)
        owner_row = knowledge.adj[self.owner]
        self._knowledge = knowledge
        self._solver_graph = compact if compact is not None else knowledge
        self._direct = {
            neighbor: metric.link_value_from_attributes(owner_row[neighbor])
            for neighbor in neighbors.neighbors()
            if neighbor in owner_row
        }

    def _knowledge_graph(self, neighbors: NeighborTable, topology: TopologyTable) -> nx.Graph:
        graph = topology.as_graph()
        graph.add_node(self.owner)
        for neighbor, weights in neighbors.neighbor_link_table().items():
            graph.add_edge(self.owner, neighbor, **weights)
        # Two-hop reports give additional usable links around the owner.
        for neighbor, reported in neighbors.two_hop_link_table().items():
            for other, weights in reported.items():
                if not graph.has_edge(neighbor, other):
                    graph.add_edge(neighbor, other, **weights)
        return graph

    # ------------------------------------------------------------------ queries

    def entry(self, destination: NodeId) -> Optional[RouteEntry]:
        """The route to ``destination`` as of the last :meth:`recompute` (None if none)."""
        if destination == self.owner or destination not in self._knowledge:
            return None
        chosen = best_next_hop(
            self._knowledge, self._solver_graph, self.owner, destination, self._direct, self.metric
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
