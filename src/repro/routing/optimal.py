"""Centralized optimal QoS routing -- the evaluation's reference point.

The paper measures every protocol's bandwidth/delay overhead against "the optimal centralized
QoS-weighted shortest path (Dijkstra algorithm)" computed on the *full* network graph.  For
the additive metrics this is the textbook Dijkstra; for the concave metrics it is the
widest-path variant; both are instances of the same label-setting loop, parameterized by the
:class:`~repro.metrics.base.Metric`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.metrics.base import Metric
from repro.topology.network import Network
from repro.utils.ids import NodeId


@dataclass(frozen=True)
class OptimalRoute:
    """A QoS-optimal path between two nodes, with its value under the metric."""

    source: NodeId
    destination: NodeId
    path: Tuple[NodeId, ...]
    value: float

    @property
    def reachable(self) -> bool:
        return len(self.path) > 0

    @property
    def hop_count(self) -> int:
        return max(0, len(self.path) - 1)


def best_path(
    graph: nx.Graph,
    source: NodeId,
    destination: NodeId,
    metric: Metric,
) -> OptimalRoute:
    """The QoS-optimal path between two nodes of ``graph`` (empty path when unreachable).

    Among equally good paths the one found first by the label-setting order is returned; the
    value, which is what the evaluation compares, is unique.
    """
    if source not in graph or destination not in graph:
        return OptimalRoute(source, destination, (), metric.worst)
    if source == destination:
        return OptimalRoute(source, destination, (source,), metric.identity)

    best_value: Dict[NodeId, float] = {}
    predecessor: Dict[NodeId, Optional[NodeId]] = {}
    counter = 0
    # Heap entries carry the node they were relaxed from; the predecessor is committed only
    # when the entry is popped and the node finalized, which keeps the reconstruction correct
    # for both metric families without any tentative-value bookkeeping.
    heap: List[Tuple[object, int, NodeId, float, Optional[NodeId]]] = [
        (metric.sort_key(metric.identity), counter, source, metric.identity, None)
    ]
    while heap:
        _, __, node, value, parent = heapq.heappop(heap)
        if node in best_value:
            continue
        best_value[node] = value
        predecessor[node] = parent
        if node == destination:
            break
        for neighbor in graph.neighbors(node):
            if neighbor in best_value:
                continue
            link_value = metric.link_value_from_attributes(graph.edges[node, neighbor])
            candidate = metric.combine(value, link_value)
            counter += 1
            heapq.heappush(heap, (metric.sort_key(candidate), counter, neighbor, candidate, node))

    if destination not in best_value:
        return OptimalRoute(source, destination, (), metric.worst)

    path: List[NodeId] = [destination]
    while predecessor[path[-1]] is not None:
        path.append(predecessor[path[-1]])
    path.reverse()
    return OptimalRoute(source, destination, tuple(path), best_value[destination])


def optimal_route(network: Network, source: NodeId, destination: NodeId, metric: Metric) -> OptimalRoute:
    """Centralized optimal route on a :class:`~repro.topology.network.Network`."""
    return best_path(network.graph, source, destination, metric)
