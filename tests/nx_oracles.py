"""The networkx reference solvers the compact-graph core is cross-validated against.

These are the library's original implementations of :mod:`repro.localview.paths`, which
traversed a networkx graph and extracted link values on every relaxation.  They share no
code with the flat-adjacency solvers, so agreement between the two is evidence for both;
``tests/test_compactgraph_and_parallel.py`` and ``tests/test_differential_solvers.py``
use them as oracles.  :func:`best_path_nx` is the original label-setting route search over
a networkx graph, the oracle of the hop-by-hop router's link-state routes.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.localview import FirstHopResult, LocalView
from repro.metrics.base import Metric
from repro.routing.optimal import OptimalRoute
from repro.utils.ids import NodeId


def best_values_from_nx(
    graph: nx.Graph,
    source: NodeId,
    metric: Metric,
    excluded: Iterable[NodeId] = (),
) -> Dict[NodeId, float]:
    excluded_set = set(excluded)
    if source in excluded_set or source not in graph:
        return {}
    best: Dict[NodeId, float] = {}
    counter = 0  # tie-breaker so heap entries never compare nodes of different types
    heap: List[Tuple[object, int, NodeId, float]] = [
        (metric.sort_key(metric.identity), counter, source, metric.identity)
    ]
    while heap:
        _, __, node, value = heapq.heappop(heap)
        if node in best:
            continue
        best[node] = value
        for neighbor in graph.neighbors(node):
            if neighbor in best or neighbor in excluded_set:
                continue
            link_value = metric.link_value_from_attributes(graph.adj[node][neighbor])
            candidate = metric.combine(value, link_value)
            counter += 1
            heapq.heappush(heap, (metric.sort_key(candidate), counter, neighbor, candidate))
    return best


def first_hops_to_nx(view: LocalView, target: NodeId, metric: Metric) -> FirstHopResult:
    owner = view.owner
    if target == owner:
        raise ValueError("the owner trivially reaches itself; first hops are undefined")
    if target not in view.graph:
        return FirstHopResult(target=target, best_value=metric.worst, first_hops=frozenset())

    from_target = best_values_from_nx(view.graph, target, metric, excluded=(owner,))

    candidate_values: Dict[NodeId, float] = {}
    for neighbor in view.one_hop:
        link_value = view.direct_link_value(neighbor, metric)
        if neighbor == target:
            remainder = metric.identity
        elif neighbor in from_target:
            remainder = from_target[neighbor]
        else:
            continue
        path_start = metric.combine(metric.identity, link_value)
        candidate_values[neighbor] = metric.combine(path_start, remainder)

    if not candidate_values:
        return FirstHopResult(target=target, best_value=metric.worst, first_hops=frozenset())

    best_value = metric.optimum(candidate_values.values())
    first_hops = frozenset(
        neighbor
        for neighbor, value in candidate_values.items()
        if metric.values_equal(value, best_value)
    )
    return FirstHopResult(target=target, best_value=best_value, first_hops=first_hops)


def all_first_hops_owner_dijkstra_nx(view: LocalView, metric: Metric) -> Dict[NodeId, FirstHopResult]:
    owner = view.owner
    graph = view.graph
    distances = best_values_from_nx(graph, owner, metric)

    first_hops: Dict[NodeId, set] = {node: set() for node in distances}
    worklist = deque()

    for neighbor in view.one_hop:
        if neighbor not in distances:
            continue
        link_value = view.direct_link_value(neighbor, metric)
        direct = metric.combine(metric.identity, link_value)
        if metric.values_equal(direct, distances[neighbor]):
            first_hops[neighbor].add(neighbor)
            worklist.append(neighbor)

    while worklist:
        node = worklist.popleft()
        node_value = distances[node]
        node_hops = first_hops[node]
        for successor in graph.neighbors(node):
            if successor == owner or successor not in distances:
                continue
            link_value = metric.link_value_from_attributes(graph.edges[node, successor])
            if not metric.values_equal(metric.combine(node_value, link_value), distances[successor]):
                continue
            successor_hops = first_hops[successor]
            if not node_hops <= successor_hops:
                successor_hops |= node_hops
                worklist.append(successor)

    results: Dict[NodeId, FirstHopResult] = {}
    for target in view.known_targets():
        if target in distances and first_hops[target]:
            results[target] = FirstHopResult(
                target=target,
                best_value=distances[target],
                first_hops=frozenset(first_hops[target]),
            )
        else:
            results[target] = FirstHopResult(
                target=target, best_value=metric.worst, first_hops=frozenset()
            )
    return results


def all_first_hops_bottleneck_forest_nx(view: LocalView, metric: Metric) -> Dict[NodeId, FirstHopResult]:
    owner = view.owner
    graph = view.graph
    nodes = [node for node in graph.nodes if node != owner]
    if not nodes:
        return {
            target: FirstHopResult(target=target, best_value=metric.worst, first_hops=frozenset())
            for target in view.known_targets()
        }

    parent: Dict[NodeId, NodeId] = {node: node for node in nodes}

    def find(node: NodeId) -> NodeId:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    edges = []
    for a, b in graph.edges:
        if a == owner or b == owner:
            continue
        value = metric.link_value_from_attributes(graph.edges[a, b])
        edges.append((metric.sort_key(value), a, b, value))
    edges.sort()

    forest: Dict[NodeId, List[Tuple[NodeId, float]]] = {node: [] for node in nodes}
    for _, a, b, value in edges:
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            continue
        parent[root_a] = root_b
        forest[a].append((b, value))
        forest[b].append((a, value))

    one_hop_links = {
        neighbor: view.direct_link_value(neighbor, metric) for neighbor in view.one_hop
    }

    results: Dict[NodeId, FirstHopResult] = {}
    for target in view.known_targets():
        bottleneck: Dict[NodeId, float] = {target: metric.identity}
        stack = [target]
        while stack:
            node = stack.pop()
            node_value = bottleneck[node]
            for neighbor, link_value in forest[node]:
                if neighbor in bottleneck:
                    continue
                bottleneck[neighbor] = metric.combine(node_value, link_value)
                stack.append(neighbor)

        candidates: Dict[NodeId, float] = {}
        for neighbor, direct in one_hop_links.items():
            start = metric.combine(metric.identity, direct)
            if neighbor == target:
                candidates[neighbor] = start
                continue
            remainder = bottleneck.get(neighbor)
            if remainder is None:
                continue
            candidates[neighbor] = metric.combine(start, remainder)

        if not candidates:
            results[target] = FirstHopResult(
                target=target, best_value=metric.worst, first_hops=frozenset()
            )
            continue
        best_value = metric.optimum(candidates.values())
        first_hops = frozenset(
            neighbor
            for neighbor, value in candidates.items()
            if metric.values_equal(value, best_value)
        )
        results[target] = FirstHopResult(target=target, best_value=best_value, first_hops=first_hops)
    return results


def best_path_nx(graph: nx.Graph, source: NodeId, destination: NodeId, metric: Metric) -> OptimalRoute:
    """The QoS-optimal path between two nodes of ``graph`` (empty path when unreachable).

    Neighbors are relaxed in ``graph.neighbors`` order, and among equally good paths the
    one found first wins.
    """
    if source not in graph or destination not in graph:
        return OptimalRoute(source, destination, (), metric.worst)
    if source == destination:
        return OptimalRoute(source, destination, (source,), metric.identity)

    best_value: Dict[NodeId, float] = {}
    predecessor: Dict[NodeId, Optional[NodeId]] = {}
    counter = 0
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
