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

from typing import Set, Tuple

import networkx as nx

from repro.metrics.base import Metric
from repro.utils.ids import NodeId


def qos_rng_reduce(graph: nx.Graph, metric: Metric) -> nx.Graph:
    """Return a copy of ``graph`` with every RNG-dominated link removed.

    The input graph is not modified.  Edge attributes are preserved on the surviving links.
    """
    reduced = graph.copy()
    for a, b in list(graph.edges):
        if _is_dominated(graph, a, b, metric):
            reduced.remove_edge(a, b)
    return reduced


def dominated_links(graph: nx.Graph, metric: Metric) -> Set[Tuple[NodeId, NodeId]]:
    """The set of links the reduction removes (canonically oriented), useful for display."""
    removed: Set[Tuple[NodeId, NodeId]] = set()
    for a, b in graph.edges:
        if _is_dominated(graph, a, b, metric):
            removed.add((a, b) if a <= b else (b, a))
    return removed


def _is_dominated(graph: nx.Graph, a: NodeId, b: NodeId, metric: Metric) -> bool:
    direct = metric.link_value_from_attributes(graph.edges[a, b])
    for witness in set(graph.neighbors(a)) & set(graph.neighbors(b)):
        leg_a = metric.link_value_from_attributes(graph.edges[a, witness])
        leg_b = metric.link_value_from_attributes(graph.edges[witness, b])
        if metric.is_better(leg_a, direct) and metric.is_better(leg_b, direct):
            return True
    return False
