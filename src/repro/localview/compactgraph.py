"""A compact flat-adjacency (CSR-style) graph for the selection hot path.

Every selection algorithm funnels through the same inner loop: a label-setting
single-source solver (Dijkstra / widest path) over a node's two-hop local view, run once
per view or once per target.  On the view's link map (node -> ``{neighbor: attributes}``)
each relaxation pays for a dict-of-dict edge lookup plus a
``metric.link_value_from_attributes`` call; over a full density sweep (100 topologies per
density, every node, every selector) those constant factors dominate the wall clock.
:class:`CompactGraph` removes them by flattening the map once per (view, metric) pair:

Layout (the moral equivalent of a CSR matrix, kept as per-row tuples because CPython
iterates tuples of tuples faster than it slices flat arrays):

* ``nodes``  -- tuple of node identifiers; position = the node's integer index.
* ``index``  -- dict mapping node identifier -> integer index (the inverse of ``nodes``).
* ``adj``    -- tuple of per-node rows; ``adj[i]`` is a tuple of ``(neighbor_index,
  link_value)`` pairs, one per incident edge, with the metric's link value extracted from
  the edge attributes *once* at build time.  Undirected edges appear in both endpoint
  rows.

The graph is immutable by convention (nothing mutates the tuples) and therefore safe to
cache -- :meth:`repro.localview.view.LocalView.compact_graph` memoizes one instance per
metric so repeated selector runs on the same view share the extraction work.

The module also hosts the label-setting solvers specialized for the flat layout.  For the
stock additive/concave metrics the inner loop inlines the combine rule (``+`` / ``min``)
and the heap key (value / negated value) instead of going through ``Metric`` method
calls; any metric that overrides the protocol (e.g.
:class:`~repro.metrics.composite.LexicographicMetric`) transparently falls back to the
generic solver, which still benefits from the pre-extracted link values.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.metrics.base import AdditiveMetric, ConcaveMetric, Metric
from repro.utils.ids import NodeId


class CompactGraph:
    """An immutable flat-adjacency snapshot of a graph under one metric."""

    __slots__ = ("nodes", "index", "adj", "metric_name")

    def __init__(
        self,
        nodes: Tuple[NodeId, ...],
        index: Dict[NodeId, int],
        adj: Tuple[Tuple[Tuple[int, float], ...], ...],
        metric_name: str,
    ) -> None:
        self.nodes = nodes
        self.index = index
        self.adj = adj
        self.metric_name = metric_name

    # ------------------------------------------------------------------ construction

    @classmethod
    def from_links(cls, links, metric: Metric) -> "CompactGraph":
        """Flatten a link map (node -> ``{neighbor: attributes}``, such as
        :attr:`LocalView.links` or :attr:`Network.adjacency`), extracting ``metric``'s link
        values once.

        Node indices and rows follow the map's (deterministic) order.  Raises the same
        :class:`KeyError` as ``metric.link_value_from_attributes`` when a link lacks the
        metric's attribute.
        """
        nodes = tuple(links)
        index = {node: i for i, node in enumerate(nodes)}
        extract = metric.link_value_from_attributes
        rows = []
        for node in nodes:
            row = tuple((index[other], extract(data)) for other, data in links[node].items())
            rows.append(row)
        return cls(nodes=nodes, index=index, adj=tuple(rows), metric_name=metric.name)

    # ------------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.index

    def degree(self, i: int) -> int:
        """Number of edges incident to the node with index ``i``."""
        return len(self.adj[i])

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(row) for row in self.adj) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactGraph(nodes={len(self.nodes)}, edges={self.edge_count()}, "
            f"metric={self.metric_name!r})"
        )


# ---------------------------------------------------------------------- metric dispatch


def specialized_kind(metric: Metric) -> Optional[str]:
    """``"additive"`` / ``"concave"`` when ``metric`` uses the stock protocol, else None.

    The specialized solvers inline ``combine``, ``sort_key`` and ``values_equal``; that is
    only sound when the metric has not overridden any of them (nor ``identity``).
    """
    cls = type(metric)
    if cls.values_equal is not Metric.values_equal:
        return None
    if (
        isinstance(metric, AdditiveMetric)
        and cls.combine is AdditiveMetric.combine
        and cls.sort_key is AdditiveMetric.sort_key
        and cls.identity is AdditiveMetric.identity
    ):
        return "additive"
    if (
        isinstance(metric, ConcaveMetric)
        and cls.combine is ConcaveMetric.combine
        and cls.sort_key is ConcaveMetric.sort_key
        and cls.identity is ConcaveMetric.identity
    ):
        return "concave"
    return None


def float_values_equal(rel_tol: float) -> Callable[[float, float], bool]:
    """A closure replicating :meth:`Metric.values_equal` for plain float values.

    ``a == b or math.isclose(a, b, ...)`` is exactly the base implementation: equal
    infinities hit the ``==`` shortcut, and ``isclose`` is False whenever exactly one value
    is infinite, which is what the base method's explicit infinity branch returns.  Hot
    loops inline this expression directly instead of paying a call per edge.
    """
    isclose = math.isclose

    def eq(a: float, b: float) -> bool:
        return a == b or isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol)

    return eq


def combine_and_equality(metric: Metric):
    """``(combine, values_equal)`` callables, inlined for the stock metric families."""
    kind = specialized_kind(metric)
    if kind == "additive":
        return (lambda a, b: a + b), float_values_equal(metric.rel_tol)
    if kind == "concave":
        return min, float_values_equal(metric.rel_tol)
    return metric.combine, metric.values_equal


# ---------------------------------------------------------------------- solvers


def max_bottleneck_forest(
    cg: CompactGraph, excluded: int, metric: Metric
) -> Tuple[Tuple[Tuple[int, float], ...], ...]:
    """Maximum-bottleneck spanning forest of ``cg`` minus one node (Kruskal).

    For a concave metric the best path value between two nodes of a graph equals the
    bottleneck along their unique path in any maximum(-bottleneck) spanning forest, so one
    forest answers every pairwise bottleneck query on the owner-free view.  Edges are sorted
    best-first by ``metric.sort_key`` and joined with a union-find.

    The returned adjacency (``forest[i]`` is a tuple of ``(neighbor_index, link_value)``
    pairs, indices matching ``cg``) is immutable, which is what makes it safe to cache per
    ``(view, metric)`` -- :meth:`repro.localview.view.LocalView.bottleneck_forest` memoizes
    one forest per metric cache token so repeated concave selector runs on one view skip
    Kruskal entirely.
    """
    adj = cg.adj
    node_count = len(adj)
    sort_key = metric.sort_key
    edges = []
    for a in range(node_count):
        if a == excluded:
            continue
        for b, value in adj[a]:
            if a < b and b != excluded:
                edges.append((sort_key(value), a, b, value))
    edges.sort()

    parent = list(range(node_count))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    forest: list = [[] for _ in range(node_count)]
    for _, a, b, value in edges:
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            continue
        parent[root_a] = root_b
        forest[a].append((b, value))
        forest[b].append((a, value))
    return tuple(tuple(row) for row in forest)


def best_values(
    cg: CompactGraph,
    source: int,
    metric: Metric,
    blocked: Iterable[int] = (),
) -> Dict[int, object]:
    """Best path value from node index ``source`` to every reachable node index.

    ``blocked`` node indices are treated as absent.  The returned dict is keyed by node
    index in label-settling order (the order Dijkstra finalizes nodes), mirroring the
    historical behaviour of :func:`repro.localview.paths.best_values_from`.
    """
    kind = specialized_kind(metric)
    if kind == "additive":
        return _best_values_additive(cg.adj, source, blocked)
    if kind == "concave":
        return _best_values_concave(cg.adj, source, blocked)
    return _best_values_generic(cg.adj, source, metric, blocked)


def _best_values_additive(adj, source: int, blocked) -> Dict[int, float]:
    # The inner loop skips settled neighbors implicitly: a settled node's bound is its
    # final (minimal) value, so no later candidate can undercut it and trigger a push.
    # Unvisited nodes carry None (not +inf) so that a legitimately infinite candidate --
    # an unvalidated infinite link weight -- still counts as reachable, as it does for the
    # legacy traversal; blocked nodes carry -inf, which no candidate undercuts.
    ninf = -math.inf
    bound: list = [None] * len(adj)
    for b in blocked:
        bound[b] = ninf
    if bound[source] is not None:
        return {}
    settled = bytearray(len(adj))
    best: Dict[int, float] = {}
    heap = [(0.0, source)]
    bound[source] = 0.0
    while heap:
        value, node = heappop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        best[node] = value
        for neighbor, weight in adj[node]:
            candidate = value + weight
            current = bound[neighbor]
            if current is None or candidate < current:
                bound[neighbor] = candidate
                heappush(heap, (candidate, neighbor))
    return best


def _best_values_concave(adj, source: int, blocked) -> Dict[int, float]:
    # Unvisited nodes carry -inf (below any real candidate, including an unvalidated
    # zero-weight link's 0.0); blocked nodes carry +inf, which no candidate exceeds.
    inf = math.inf
    bound = [-inf] * len(adj)
    for b in blocked:
        bound[b] = inf
    if bound[source] == inf:
        return {}
    settled = bytearray(len(adj))
    best: Dict[int, float] = {}
    heap = [(-inf, source)]
    bound[source] = inf
    while heap:
        key, node = heappop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        value = -key
        best[node] = value
        for neighbor, weight in adj[node]:
            candidate = weight if weight < value else value
            if candidate > bound[neighbor]:
                bound[neighbor] = candidate
                heappush(heap, (-candidate, neighbor))
    return best


def _best_values_generic(adj, source: int, metric: Metric, blocked) -> Dict[int, object]:
    visited = bytearray(len(adj))
    for b in blocked:
        visited[b] = 1
    if visited[source]:
        return {}
    combine = metric.combine
    sort_key = metric.sort_key
    best: Dict[int, object] = {}
    counter = 0
    heap = [(sort_key(metric.identity), counter, source, metric.identity)]
    while heap:
        _, __, node, value = heappop(heap)
        if visited[node]:
            continue
        visited[node] = 1
        best[node] = value
        for neighbor, weight in adj[node]:
            if not visited[neighbor]:
                candidate = combine(value, weight)
                counter += 1
                heappush(heap, (sort_key(candidate), counter, neighbor, candidate))
    return best
