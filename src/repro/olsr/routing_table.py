"""Per-node routing-table computation.

An OLSR node computes next hops from what it knows: its own links (neighbor table) plus the
TC-learned advertised topology.  The original protocol uses hop count; the QoS variants use
the QoS metric, which is what this implementation does -- it is the in-protocol counterpart
of :class:`repro.routing.hop_by_hop.HopByHopRouter` and the simulator's nodes use it to
forward data packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import networkx as nx

from repro.localview.compactgraph import CompactGraph
from repro.localview.paths import best_values_from
from repro.metrics.base import Metric
from repro.metrics.ordering import preferred_neighbor
from repro.olsr.neighbor_table import NeighborTable
from repro.olsr.topology_table import TopologyTable
from repro.utils.ids import NodeId


@dataclass(frozen=True)
class RouteEntry:
    """One routing-table row: destination, chosen next hop and the expected path value."""

    destination: NodeId
    next_hop: NodeId
    expected_value: float


class RoutingTable:
    """Next-hop table computed from the node's own knowledge."""

    def __init__(self, owner: NodeId, metric: Metric):
        self.owner = owner
        self.metric = metric
        self._routes: Dict[NodeId, RouteEntry] = {}

    # ------------------------------------------------------------------ computation

    def recompute(self, neighbors: NeighborTable, topology: TopologyTable) -> None:
        """Rebuild the table from the current neighbor and topology tables."""
        metric = self.metric
        owner = self.owner
        knowledge = self._knowledge_graph(neighbors, topology)
        self._routes = {}

        destinations = [node for node in knowledge.nodes if node != owner]
        if not destinations:
            return

        # One flat snapshot serves every per-destination solve (excluded nodes are handled
        # at solver level); heterogeneous tables whose merged links miss the metric's
        # attribute fall back to the lazy networkx traversal.
        compact = CompactGraph.try_from_networkx(knowledge, metric)
        solver_graph = compact if compact is not None else knowledge
        for destination in destinations:
            entry = self._best_next_hop(knowledge, solver_graph, neighbors, destination)
            if entry is not None:
                self._routes[destination] = entry

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

    def _best_next_hop(
        self,
        knowledge: nx.Graph,
        solver_graph,
        neighbors: NeighborTable,
        destination: NodeId,
    ) -> Optional[RouteEntry]:
        metric = self.metric
        owner = self.owner
        one_hop = neighbors.neighbors()
        if destination in one_hop and knowledge.has_edge(owner, destination):
            direct_value = metric.link_value_from_attributes(knowledge.adj[owner][destination])
        else:
            direct_value = None

        from_destination = best_values_from(solver_graph, destination, metric, excluded=(owner,))
        hops_from_destination = self._hop_distances(knowledge, destination)
        candidates: Dict[NodeId, tuple[float, float]] = {}
        for neighbor in one_hop:
            if not knowledge.has_edge(owner, neighbor):
                continue
            link_value = metric.link_value_from_attributes(knowledge.adj[owner][neighbor])
            start = metric.combine(metric.identity, link_value)
            if neighbor == destination:
                candidates[neighbor] = (start, 1.0)
                continue
            remainder = from_destination.get(neighbor)
            if remainder is None:
                continue
            hop_estimate = 1.0 + hops_from_destination.get(neighbor, float("inf"))
            candidates[neighbor] = (metric.combine(start, remainder), hop_estimate)

        if not candidates:
            return None
        best_value = metric.optimum(value for value, _ in candidates.values())
        if not metric.is_usable(best_value):
            return None
        # Among the QoS-optimal next hops keep the hop-shortest ones (bottleneck metrics tie
        # often; preferring hop progress keeps independent per-node decisions consistent),
        # then apply the paper's preference order.
        best_neighbors = {
            neighbor: hops
            for neighbor, (value, hops) in candidates.items()
            if metric.values_equal(value, best_value)
        }
        fewest_hops = min(best_neighbors.values())
        shortlist = [neighbor for neighbor, hops in best_neighbors.items() if hops == fewest_hops]
        chosen = preferred_neighbor(
            shortlist,
            metric,
            lambda neighbor: metric.link_value_from_attributes(knowledge.adj[owner][neighbor]),
        )
        return RouteEntry(destination=destination, next_hop=chosen, expected_value=best_value)

    def _hop_distances(self, knowledge: nx.Graph, destination: NodeId) -> Dict[NodeId, float]:
        """BFS hop distances from the destination over the knowledge graph minus the owner."""
        distances: Dict[NodeId, float] = {destination: 0.0}
        frontier = [destination]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in knowledge.neighbors(node):
                    if neighbor == self.owner or neighbor in distances:
                        continue
                    distances[neighbor] = distances[node] + 1.0
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return distances

    # ------------------------------------------------------------------ queries

    def next_hop(self, destination: NodeId) -> Optional[NodeId]:
        entry = self._routes.get(destination)
        return entry.next_hop if entry else None

    def entry(self, destination: NodeId) -> Optional[RouteEntry]:
        return self._routes.get(destination)

    def destinations(self) -> list[NodeId]:
        return sorted(self._routes)

    def __len__(self) -> int:
        return len(self._routes)
