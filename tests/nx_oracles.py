"""The networkx references the library's link-map code is cross-validated against.

networkx is a test dependency only: the library's one graph representation is the link map
(node -> ``{neighbour: attributes}``).  :func:`nx_graph` turns a link map into a networkx
graph with the same node and row order.

The solvers below are the library's original implementations of
:mod:`repro.localview.paths`, which traversed a networkx graph and extracted link values on
every relaxation.  They share no code with the flat-adjacency solvers, so agreement between
the two is evidence for both; ``tests/test_compactgraph_and_parallel.py`` and
``tests/test_differential_solvers.py`` use them as oracles.  :func:`best_path_nx` is the
original label-setting route search over a networkx graph, the oracle of the hop-by-hop
router's link-state routes.  :class:`NxNetwork` is the original
:class:`~repro.topology.network.Network`, backed by a networkx graph: the reference
``tests/test_topology_network.py`` holds the link-map network's orders to.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.localview import FirstHopResult, LocalView
from repro.localview.view import Links
from repro.metrics.base import Metric
from repro.routing.optimal import OptimalRoute
from repro.utils.ids import NodeId, normalize_node_id


def nx_graph(links: Links) -> nx.Graph:
    """The link map ``links`` as a networkx graph, in the same node and row order; it shares
    the attribute dicts."""
    graph = nx.Graph()
    graph.add_nodes_from(links)
    adjacency = graph._adj
    for node, row in links.items():
        adjacency[node].update(row)
    return graph


class NxNetwork:
    """The network model on a networkx graph: each method is the body the link-map
    :class:`~repro.topology.network.Network` replaced."""

    def __init__(self) -> None:
        self.graph = nx.Graph()

    def add_node(self, node, position=None):
        node = normalize_node_id(node)
        x, y = position if position is not None else (0.0, 0.0)
        self.graph.add_node(node, pos=(float(x), float(y)))
        return node

    def add_link(self, u, v, **weights) -> None:
        u, v = normalize_node_id(u), normalize_node_id(v)
        if u == v:
            raise ValueError(f"self-links are not allowed (node {u})")
        if u not in self.graph:
            self.add_node(u)
        if v not in self.graph:
            self.add_node(v)
        self.graph.add_edge(u, v, **{name: float(value) for name, value in weights.items()})

    def set_link_weight(self, u, v, metric_name: str, value: float) -> None:
        self.graph.edges[u, v][metric_name] = float(value)

    def remove_link(self, u, v) -> None:
        self.graph.remove_edge(u, v)

    def links(self) -> List[Tuple[NodeId, NodeId]]:
        return [(u, v) if u <= v else (v, u) for u, v in self.graph.edges]

    def positions(self) -> Dict[NodeId, Tuple[float, float]]:
        return {node: data["pos"] for node, data in self.graph.nodes(data=True)}

    def connected_components(self) -> List[Set[NodeId]]:
        return sorted((set(c) for c in nx.connected_components(self.graph)), key=len, reverse=True)

    def largest_component(self) -> "NxNetwork":
        components = self.connected_components()
        if not components:
            return NxNetwork()
        return self.subnetwork(components[0])

    def subnetwork(self, nodes: Iterable[NodeId]) -> "NxNetwork":
        keep = set(nodes)
        sub = NxNetwork()
        for node in keep:
            if node in self.graph:
                sub.add_node(node, self.graph.nodes[node]["pos"])
        for u, v in self.graph.edges:
            if u in keep and v in keep:
                sub.add_link(u, v, **self.graph.edges[u, v])
        return sub


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
    graph = nx_graph(view.links)
    if target not in graph:
        return FirstHopResult(target=target, best_value=metric.worst, first_hops=frozenset())

    from_target = best_values_from_nx(graph, target, metric, excluded=(owner,))

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
    graph = nx_graph(view.links)
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
    graph = nx_graph(view.links)
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
