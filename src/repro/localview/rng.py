"""QoS-weighted relative neighborhood graph (RNG) reduction.

The topology-filtering baseline of Moraru & Simplot-Ryl (the paper's reference [7]) first
reduces the local view with a relative neighborhood graph [Toussaint 1980] using the QoS
metric as the weight function, and then advertises the first hops of the best remaining
two-hop paths.  The reduction rule, transposed to QoS weights, is:

    a link (a, b) is removed when some common neighbor c offers a *strictly better* value on
    both legs (a, c) and (c, b) than the direct link (a, b) does.

For bandwidth this removes (a, b) when both replacement legs are wider; for delay when both
are shorter.  Removing such a link never removes the last optimal two-hop detour, which is
why the baseline preserves QoS-optimal two-hop paths while shrinking the advertised set.

These functions reduce one graph at a time and are the reference for the batched path:
:mod:`repro.localview.filtering` finds every link's witnesses once per network
(:func:`~repro.localview.filtering.dominance_witnesses`) and applies the reduction to
all views at once; ``tests/test_filtering_kernel.py`` pins the two together.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

import networkx as nx

from repro.metrics.base import Metric
from repro.utils.ids import NodeId


def qos_rng_reduce(graph: nx.Graph, metric: Metric) -> nx.Graph:
    """Return a copy of ``graph`` with every RNG-dominated link removed.

    The input graph is not modified.  Edge attributes are preserved on the surviving links.
    """
    reduced = graph.copy()
    for a, b in list(_links(graph)):
        if _is_dominated(graph, a, b, metric):
            reduced.remove_edge(a, b)
    return reduced


def dominated_links(graph: nx.Graph, metric: Metric) -> Set[Tuple[NodeId, NodeId]]:
    """The set of links the reduction removes (canonically oriented), useful for display."""
    removed: Set[Tuple[NodeId, NodeId]] = set()
    for a, b in _links(graph):
        if _is_dominated(graph, a, b, metric):
            removed.add((a, b) if a <= b else (b, a))
    return removed


def _links(graph: nx.Graph) -> Iterator[Tuple[NodeId, NodeId]]:
    """Every link once, in ``graph.edges`` order, from the adjacency.

    Reading ``graph.edges`` would cache an ``EdgeView`` on the graph that points back at
    it, leaving a dropped graph to the cyclic garbage collector.
    """
    seen = set()
    for a, neighbors in graph.adjacency():
        for b in neighbors:
            if b not in seen:
                yield a, b
        seen.add(a)


def _is_dominated(graph: nx.Graph, a: NodeId, b: NodeId, metric: Metric) -> bool:
    adj = graph.adj
    direct = metric.link_value_from_attributes(adj[a][b])
    for witness in set(adj[a]) & set(adj[b]):
        leg_a = metric.link_value_from_attributes(adj[a][witness])
        leg_b = metric.link_value_from_attributes(adj[witness][b])
        if metric.is_better(leg_a, direct) and metric.is_better(leg_b, direct):
            return True
    return False
