"""Hop-by-hop forwarding over the advertised topology.

OLSR routing is hop-by-hop: each node keeps a routing table that maps every destination to a
next hop, computed from the node's own knowledge -- the advertised (TC-learned) topology plus
the node's own one-hop links.  The packet's actual trajectory is therefore the concatenation
of locally optimal decisions, which may differ from any single node's idea of the full path;
when the advertised sets are chosen badly this is exactly how the paper's Figure 4 loop and
unreachable destinations arise, so the router below detects loops and dead ends and reports
them rather than hiding them.

:func:`best_next_hop` is the one next-hop rule: the analytic router below and the protocol
simulator's per-node :class:`~repro.olsr.routing_table.RoutingTable` both call it, each over
its own knowledge graph.

The QoS value "consumed" by a delivered packet (the paper's ``b`` and ``d``) is the value of
the traversed path computed on the *true* link weights of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.localview.compactgraph import CompactGraph
from repro.localview.paths import best_values_from
from repro.metrics.base import Metric
from repro.metrics.ordering import preferred_neighbor
from repro.routing.advertised import AdvertisedTopology
from repro.topology.network import Network
from repro.utils.ids import NodeId


def hello_learned_edges(network: Network, source: NodeId):
    """The ``(neighbor, other, attributes)`` link triples ``source`` knows from HELLOs.

    RFC 3626's route calculation seeds the routing table with the one- and two-hop links
    learned from HELLO piggybacking -- every link incident to a one-hop neighbor of the
    source.  This single walk (in adjacency order) is the definition both consumers share:
    the router's default per-source walk and the per-trial cache
    (:meth:`repro.experiments.runner.Trial.link_state_edges`) that shares one walk across
    the routers of every selector.
    """
    adjacency = network.graph.adj
    for neighbor in adjacency[source]:
        for other, attributes in adjacency[neighbor].items():
            yield (neighbor, other, attributes)


def best_next_hop(
    graph: nx.Graph,
    solver_graph: nx.Graph | CompactGraph,
    owner: NodeId,
    destination: NodeId,
    direct: Mapping[NodeId, float],
    metric: Metric,
) -> Optional[Tuple[NodeId, float]]:
    """The neighbor ``owner`` forwards to for ``destination``, with the path value it expects.

    ``graph`` is the topology the owner knows, which must contain ``destination``, and
    ``solver_graph`` is either ``graph`` or its :class:`CompactGraph` snapshot.  ``direct``
    maps each one-hop neighbor to the value of the owner's link to it; candidates are
    scanned in its order.  A neighbor's value is its link combined with the best path from
    it to ``destination`` over ``graph`` minus the owner (the rest of the path cannot
    revisit it).  Among the neighbors achieving the optimal value, the fewest hops over
    ``graph`` minus the owner win, then the better direct link, then the smaller
    identifier.  The hop tie-break matters in practice: bottleneck metrics produce many
    equally wide next hops, and preferring hop progress is what keeps independent per-node
    decisions from bouncing a packet back and forth (QOLSR's own route computation also
    keeps hop-shortest among the QoS-optimal routes).  None when the optimum is unusable or
    no neighbor leads anywhere.
    """
    from_destination = best_values_from(solver_graph, destination, metric, excluded=(owner,))
    distance: Dict[NodeId, float] = {destination: 0.0}
    frontier = [destination]
    while frontier:  # breadth-first hop distances from the destination, owner excluded
        next_frontier = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor != owner and neighbor not in distance:
                    distance[neighbor] = distance[node] + 1.0
                    next_frontier.append(neighbor)
        frontier = next_frontier

    candidates: Dict[NodeId, Tuple[float, float]] = {}
    for neighbor, link_value in direct.items():
        start = metric.combine(metric.identity, link_value)
        if neighbor == destination:
            candidates[neighbor] = (start, 1.0)
            continue
        remainder = from_destination.get(neighbor)
        if remainder is not None:
            hop_estimate = 1.0 + distance.get(neighbor, float("inf"))
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
class RouteOutcome:
    """The result of forwarding one packet hop by hop.

    ``value`` is the QoS value of the traversed path on the true link weights (only
    meaningful when ``delivered``); ``failure`` holds ``"loop"``, ``"no-route"`` or
    ``"ttl-exceeded"`` otherwise.
    """

    source: NodeId
    destination: NodeId
    path: Tuple[NodeId, ...]
    delivered: bool
    value: float
    failure: Optional[str] = None

    @property
    def hop_count(self) -> int:
        return max(0, len(self.path) - 1)


class HopByHopRouter:
    """Forwards packets using per-node next-hop decisions over an advertised topology.

    The router assumes the advertised topology is fixed for its lifetime and caches derived
    structures accordingly (a compact flat snapshot for the per-hop solves, the most recent
    source's augmented link-state graph for :meth:`link_state_route`).  When the topology
    comes from an incremental source -- :meth:`repro.experiments.runner.Trial.advertised_topology`
    returns *live* graphs that are re-targeted when a different selector is requested --
    finish routing with one router before building the next selector's topology; routing
    over a re-targeted topology raises (see :meth:`AdvertisedTopology.assert_live`) rather
    than silently mixing selections.
    """

    def __init__(
        self,
        network: Network,
        advertised: AdvertisedTopology,
        metric: Metric,
        local_edges: Optional[Callable[[NodeId], Sequence[Tuple]]] = None,
    ):
        """``local_edges`` optionally supplies a source's HELLO-learned link triples
        ``(neighbor, other, attributes)``; they depend only on the physical network, so a
        caller comparing several advertised topologies on one network (the overhead sweep)
        shares one per-source walk across all of its routers via
        :meth:`repro.experiments.runner.Trial.link_state_edges` instead of the router
        re-walking the adjacency per source (:meth:`_default_local_edges`, which is the
        same code path the cache precomputes).  Injected triples must match the default
        walk's enumeration (every link incident to a one-hop neighbor of the source, in
        adjacency order), keeping results bit-identical either way."""
        self.network = network
        self.advertised = advertised
        self.metric = metric
        self.local_edges = local_edges if local_edges is not None else self._default_local_edges
        self._advertised_compact: Optional[CompactGraph] = None
        self._advertised_compact_failed = False
        self._knowledge_source: Optional[NodeId] = None
        self._knowledge_graph: Optional[nx.Graph] = None

    def _default_local_edges(self, source: NodeId):
        """The source's HELLO-learned link triples, walked from the network adjacency."""
        return hello_learned_edges(self.network, source)

    def _advertised_compact_graph(self) -> Optional[CompactGraph]:
        """One flat snapshot of the advertised topology, shared by every next-hop solve.

        The advertised graph is fixed for the router's lifetime, so the per-hop
        ``best_values_from`` calls can all reuse it (excluded nodes are handled at solver
        level).  None when some advertised edge lacks the metric's attribute; the callers
        then pass the networkx graph and keep the lazy traversal semantics.
        """
        if self._advertised_compact is None and not self._advertised_compact_failed:
            self._advertised_compact = CompactGraph.try_from_networkx(
                self.advertised.graph, self.metric
            )
            self._advertised_compact_failed = self._advertised_compact is None
        return self._advertised_compact

    # ------------------------------------------------------------------ next-hop decision

    def next_hop(self, current: NodeId, destination: NodeId) -> Optional[NodeId]:
        """The neighbor ``current`` forwards to for ``destination`` (None when it has no route).

        The decision is :func:`best_next_hop` over ``current``'s knowledge: the advertised
        topology plus ``current``'s own one-hop links.  A destination missing from the
        advertised topology is reached over the direct link when it is a neighbor.
        """
        metric = self.metric
        if destination == current:
            return None
        self.advertised.assert_live()
        own_neighbors = self.network.neighbors(current)
        graph = self.advertised.graph
        if not graph.has_node(destination):
            return destination if destination in own_neighbors else None
        compact = self._advertised_compact_graph()
        direct = {
            neighbor: self.network.link_value(current, neighbor, metric)
            for neighbor in own_neighbors
        }
        chosen = best_next_hop(
            graph, compact if compact is not None else graph, current, destination, direct, metric
        )
        return chosen[0] if chosen is not None else None

    # ------------------------------------------------------------------ link-state routing

    def link_state_route(self, source: NodeId, destination: NodeId) -> RouteOutcome:
        """The QoS-optimal route over the source's link-state database.

        In OLSR every node computes its routing table on the TC-learned topology plus the
        HELLO-learned neighborhood: RFC 3626's route calculation first adds routes to the
        one- and two-hop neighbors from the neighbor tables, then extends them over the
        advertised topology.  This method models exactly that: one QoS-weighted
        shortest/widest-path computation over the advertised topology augmented with the
        source's local view ``G_source`` (every link incident to one of its one-hop
        neighbors, known from HELLO piggybacking).  It is what the overhead experiments
        (the paper's Figures 8 and 9) use, and unlike per-hop recomputation it cannot loop:
        bottleneck metrics tie so often that independently recomputed per-hop decisions
        (see :meth:`route`) may bounce a packet between equally wide detours, something a
        real implementation avoids precisely because all nodes share the same link-state
        database.

        Including the HELLO-learned two-hop links (not only the source's own links) is what
        guarantees that every destination within two hops stays reachable even when its
        incident links go unadvertised -- both endpoints of a link consider each other
        covered by the optimal direct link, so neither selects (and hence advertises) the
        other; the regression test for that situation lives in
        ``tests/test_fnbp_loop_guard.py``.
        """
        from repro.routing.optimal import best_path

        if source not in self.network or destination not in self.network:
            raise KeyError("source and destination must belong to the network")
        if source == destination:
            return RouteOutcome(source, destination, (source,), True, self.metric.identity)
        self.advertised.assert_live()

        # The source's link-state database (advertised topology + its local view) is fixed
        # for the router's lifetime, so routing several destinations from one source in a
        # row reuses the same augmented graph instead of re-copying the advertised
        # topology per pair.  Only the most recent source's graph is kept: sweeps draw
        # sources randomly (little reuse, so retaining more would be pure memory cost)
        # while table-style consumers route all destinations of one source consecutively.
        if self._knowledge_source == source and self._knowledge_graph is not None:
            knowledge = self._knowledge_graph
        else:
            knowledge = self.advertised.graph.copy()
            knowledge.add_node(source)
            for neighbor, other, attributes in self.local_edges(source):
                knowledge.add_edge(neighbor, other, **attributes)
            self._knowledge_source = source
            self._knowledge_graph = knowledge

        route = best_path(knowledge, source, destination, self.metric)
        if not route.reachable or not self.metric.is_usable(route.value):
            return RouteOutcome(
                source, destination, (source,), False, self.metric.worst, "no-route"
            )
        return RouteOutcome(
            source,
            destination,
            route.path,
            True,
            self._path_value(list(route.path)),
        )

    # ------------------------------------------------------------------ packet forwarding

    def route(self, source: NodeId, destination: NodeId, max_hops: Optional[int] = None) -> RouteOutcome:
        """Forward a packet from ``source`` to ``destination`` and report the outcome."""
        if source not in self.network or destination not in self.network:
            raise KeyError("source and destination must belong to the network")
        if max_hops is None:
            max_hops = max(2 * len(self.network), 16)
        if source == destination:
            return RouteOutcome(source, destination, (source,), True, self.metric.identity)

        path: List[NodeId] = [source]
        visited = {source}
        current = source
        while len(path) - 1 < max_hops:
            hop = self.next_hop(current, destination)
            if hop is None:
                return RouteOutcome(source, destination, tuple(path), False, self.metric.worst, "no-route")
            path.append(hop)
            if hop == destination:
                return RouteOutcome(
                    source, destination, tuple(path), True, self._path_value(path)
                )
            if hop in visited:
                return RouteOutcome(source, destination, tuple(path), False, self.metric.worst, "loop")
            visited.add(hop)
            current = hop
        return RouteOutcome(source, destination, tuple(path), False, self.metric.worst, "ttl-exceeded")

    def routing_table(self, node: NodeId) -> Dict[NodeId, NodeId]:
        """The full next-hop table of ``node`` for every other node of the network."""
        table: Dict[NodeId, NodeId] = {}
        for destination in self.network.nodes():
            if destination == node:
                continue
            hop = self.next_hop(node, destination)
            if hop is not None:
                table[destination] = hop
        return table

    # ------------------------------------------------------------------ helpers

    def _path_value(self, path: List[NodeId]) -> float:
        value = self.metric.identity
        for u, v in zip(path, path[1:]):
            value = self.metric.combine(value, self.network.link_value(u, v, self.metric))
        return value
