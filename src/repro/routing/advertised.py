"""From per-node advertised sets to the network-wide advertised topology.

In OLSR, every node periodically floods a TC message listing the nodes that selected it (its
advertised/MPR selectors); the union of those announcements is the partial topology every
node ends up knowing and computing routes on.  Announcing "s selected me" for every selector
s is equivalent, link-wise, to announcing the links ``(u, w)`` for every ``w ∈ ANS(u)``, which
is the form used here: :func:`build_advertised_topology` turns the per-node selection results
into a single undirected graph whose edges carry the true link weights (nodes measure their
own link QoS and include it in the announcements, as QOLSR does).

Routing then happens *on this graph* plus, at each forwarding node, that node's own one-hop
links (known from HELLOs even when nobody advertised them) -- see
:mod:`repro.routing.hop_by_hop`.

Two construction paths are provided.  :func:`build_advertised_topology` assembles an
independent graph from zero -- the right tool when the topology must outlive later builds
(tests, examples, one-off analyses).  :class:`AdvertisedTopologyBuilder` is the incremental
variant the sweeps use: it keeps ONE working graph per network and, for each successive
selection, diffs the newly advertised edge-set against the currently materialized one,
removing stale links and adding fresh ones instead of re-inserting every edge and
re-copying every attribute dictionary.  Selectors on one topology advertise heavily
overlapping link sets (they are all subsets of the same physical links, dominated by the
same well-placed relays), so the diff touches a small fraction of the edges a full rebuild
would.  The price is a liveness contract: every :class:`AdvertisedTopology` returned by one
builder wraps the *same* underlying graph, so only the most recently built selection is
valid at any time (exactly the access pattern of the overhead sweep, which finishes routing
over one selector's topology before asking for the next).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping

import networkx as nx

from repro.core.selection import AnsSelector, SelectionResult
from repro.metrics.base import Metric
from repro.topology.network import Network
from repro.utils.ids import NodeId


@dataclass
class AdvertisedTopology:
    """The network-wide link-state database induced by an ANS selection.

    Attributes
    ----------
    graph:
        Undirected graph whose edges are exactly the advertised links, carrying the same
        per-metric attributes as the underlying network.
    ans_sets:
        The per-node advertised sets the graph was built from.
    """

    graph: nx.Graph
    ans_sets: Dict[NodeId, FrozenSet[NodeId]] = field(default_factory=dict)
    #: Set on topologies handed out by an :class:`AdvertisedTopologyBuilder`: the builder
    #: and its generation counter at build time.  Independent topologies leave them unset.
    _builder: object = None
    _generation: int = 0

    def assert_live(self) -> None:
        """Raise if this topology came from a builder that has since been re-targeted.

        Builder-produced topologies share one working graph, so once a newer build exists
        this object's ``graph`` no longer matches its ``ans_sets``; consumers that route
        over the graph (the hop-by-hop router) call this to turn silent corruption into an
        error.  No-op for independently built topologies.
        """
        if self._builder is not None and self._builder._generation != self._generation:
            raise RuntimeError(
                "this AdvertisedTopology is stale: its builder has since materialized a "
                "different selection on the shared graph; request it again (or use "
                "build_advertised_topology for an independent graph)"
            )

    def advertised_link_count(self) -> int:
        """Number of distinct links present in the advertised topology."""
        return self.graph.number_of_edges()

    def average_set_size(self) -> float:
        """Mean advertised-set size per node (the quantity of the paper's Figures 6 and 7)."""
        if not self.ans_sets:
            return 0.0
        return sum(len(selected) for selected in self.ans_sets.values()) / len(self.ans_sets)


def _ans_sets(
    selections: Mapping[NodeId, SelectionResult] | Mapping[NodeId, FrozenSet[NodeId]],
) -> Dict[NodeId, FrozenSet[NodeId]]:
    """Normalize per-node selections to plain frozen advertised sets."""
    return {
        node: (
            selection.selected
            if isinstance(selection, SelectionResult)
            else frozenset(selection)
        )
        for node, selection in selections.items()
    }


def _advertised_edges(network: Network, ans_sets: Mapping[NodeId, FrozenSet[NodeId]]):
    """The undirected edge keys induced by advertised sets, validated against the network.

    A link appears as soon as *either* endpoint advertises the other; keys are frozensets so
    both orientations collapse to one edge.
    """
    edges = set()
    for node, selected in ans_sets.items():
        for relay in selected:
            if not network.has_link(node, relay):
                raise ValueError(
                    f"node {node} advertised {relay} but no such link exists in the network"
                )
            edges.add(frozenset((node, relay)))
    return edges


def build_advertised_topology(
    network: Network,
    selections: Mapping[NodeId, SelectionResult] | Mapping[NodeId, FrozenSet[NodeId]],
) -> AdvertisedTopology:
    """Assemble an independent advertised topology from per-node selections.

    ``selections`` maps each node either to a :class:`SelectionResult` or directly to the set
    of selected neighbors.  Links are added undirected: a link appears as soon as *either*
    endpoint advertises the other.  Every call builds a fresh graph; sweeps that build one
    topology per selector on the same network should use
    :class:`AdvertisedTopologyBuilder` instead.
    """
    graph = nx.Graph()
    graph.add_nodes_from(network.nodes())
    ans_sets = _ans_sets(selections)
    for key in _advertised_edges(network, ans_sets):
        u, v = key
        graph.add_edge(u, v, **network.link_attributes(u, v))
    return AdvertisedTopology(graph=graph, ans_sets=ans_sets)


class AdvertisedTopologyBuilder:
    """Incrementally maintained advertised topology for one network.

    Keeps a single working graph (all network nodes, currently advertised links) together
    with the set of materialized edges.  :meth:`build` diffs the edge-set induced by a new
    selection against the materialized one and only removes/adds the difference -- the
    advertised sets of different selectors on one topology overlap heavily, so consecutive
    builds touch few edges.  The edge diff never changes routing results relative to a full
    rebuild: the advertised *edge set and attributes* are identical, and every consumer of
    the graph (the hop-by-hop router, the compact-graph solvers) is insensitive to edge
    insertion order.

    Liveness contract: all :class:`AdvertisedTopology` objects returned by one builder share
    the same underlying graph, so only the selection passed to the most recent
    :meth:`build` call is represented at any moment.  Callers that need several selections
    alive at once must use :func:`build_advertised_topology`.
    """

    def __init__(self, network: Network) -> None:
        self._network = network
        self._graph = nx.Graph()
        self._graph.add_nodes_from(network.nodes())
        self._edges: set = set()
        self._generation = 0

    def build(
        self,
        selections: Mapping[NodeId, SelectionResult] | Mapping[NodeId, FrozenSet[NodeId]],
    ) -> AdvertisedTopology:
        """Re-target the working graph to ``selections`` and return it as a topology.

        Each build bumps the builder's generation; topologies from earlier builds raise
        from :meth:`AdvertisedTopology.assert_live` instead of silently describing one
        selection while carrying another's edges.
        """
        ans_sets = _ans_sets(selections)
        edges = _advertised_edges(self._network, ans_sets)
        graph = self._graph
        for key in self._edges - edges:
            graph.remove_edge(*key)
        network = self._network
        for key in edges - self._edges:
            u, v = key
            graph.add_edge(u, v, **network.link_attributes(u, v))
        self._edges = edges
        self._generation += 1
        return AdvertisedTopology(
            graph=graph, ans_sets=ans_sets, _builder=self, _generation=self._generation
        )

    def refresh_attributes(self, edges) -> None:
        """Re-copy the network's current attributes of the given links into the working graph.

        The edge diff of :meth:`build` leaves persisted links' attribute copies untouched,
        which is correct while the network's weights are immutable (every static sweep) but
        stale once they change underneath -- a dynamic trial whose churn model re-measures
        a link that stays advertised.  Callers advancing a
        :class:`~repro.mobility.dynamic.DynamicTopology` pass each step's reweighted edges
        here (see ``_route_stability_trial``); links not currently materialized are
        ignored (they get fresh attributes whenever a build adds them).  Rewriting a
        materialized link re-targets the builder like :meth:`build` does: topologies built
        before raise from :meth:`AdvertisedTopology.assert_live`, since routers built on
        them answer from caches of the old weights.  Build again after refreshing.
        """
        graph = self._graph
        network = self._network
        for u, v in edges:
            if frozenset((u, v)) in self._edges:
                graph.edges[u, v].update(network.link_attributes(u, v))
                self._generation += 1


def advertise(
    network: Network,
    selector: AnsSelector,
    metric: Metric,
) -> AdvertisedTopology:
    """Convenience: run the selection everywhere and build the advertised topology."""
    return build_advertised_topology(network, selector.select_all(network, metric))
