"""Hop-by-hop forwarding over the advertised topology.

OLSR routing is hop-by-hop: each node keeps a routing table that maps every destination to a
next hop, computed from the node's own knowledge -- the advertised (TC-learned) topology plus
the node's own one-hop links.  The packet's actual trajectory is therefore the concatenation
of locally optimal decisions, which may differ from any single node's idea of the full path;
when the advertised sets are chosen badly this is exactly how the paper's Figure 4 loop and
unreachable destinations arise, so the router below detects loops and dead ends and reports
them rather than hiding them.

Link-state routes (:meth:`HopByHopRouter.link_state_route`, what the paper's Figures 8 and 9
measure) search the network's own adjacency, restricted to the links the source knows, and
read the network's current weights; per-hop forwarding solves on one compact snapshot of
the advertised links, taken at the router's first decision.

:func:`best_next_hop` is the one next-hop rule: the analytic router below and the protocol
simulator's per-node :class:`~repro.olsr.routing_table.RoutingTable` both call it, each over
the compact graph of its own knowledge.

The QoS value "consumed" by a delivered packet (the paper's ``b`` and ``d``) is the value of
the traversed path computed on the *true* link weights of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.localview.compactgraph import CompactGraph
from repro.localview.paths import best_values_from
from repro.localview.view import Links
from repro.metrics.base import Metric
from repro.metrics.ordering import preferred_neighbor
from repro.routing.advertised import AdvertisedTopology
from repro.routing.optimal import _label_setting
from repro.topology.network import Network
from repro.utils.ids import NodeId


def best_next_hop(
    solver_graph: CompactGraph,
    owner: NodeId,
    destination: NodeId,
    direct: Mapping[NodeId, float],
    metric: Metric,
) -> Optional[Tuple[NodeId, float]]:
    """The neighbor ``owner`` forwards to for ``destination``, with the path value it expects.

    ``solver_graph`` is the topology the owner knows, as a :class:`CompactGraph` under
    ``metric``; it must contain ``destination``.  ``direct`` maps each one-hop neighbor to
    the value of the owner's link to it; candidates are scanned in its order.  A
    neighbor's value is its link combined with the best path from it to ``destination``
    over ``solver_graph`` minus the owner (the rest of the path cannot revisit it).  Among
    the neighbors achieving the optimal value, the fewest hops over ``solver_graph``
    minus the owner win, then the better direct link, then the smaller
    identifier.  The hop tie-break matters in practice: bottleneck metrics produce many
    equally wide next hops, and preferring hop progress is what keeps independent per-node
    decisions from bouncing a packet back and forth (QOLSR's own route computation also
    keeps hop-shortest among the QoS-optimal routes).  None when the optimum is unusable or
    no neighbor leads anywhere.
    """
    from_destination = best_values_from(solver_graph, destination, metric, excluded=(owner,))
    index = solver_graph.index
    adj = solver_graph.adj
    skipped = index.get(owner)
    frontier = [index[destination]]
    distance: Dict[int, float] = {frontier[0]: 0.0}
    while frontier:  # breadth-first hop distances from the destination, owner excluded
        next_frontier = []
        for i in frontier:
            for j, _ in adj[i]:
                if j != skipped and j not in distance:
                    distance[j] = distance[i] + 1.0
                    next_frontier.append(j)
        frontier = next_frontier

    candidates: Dict[NodeId, Tuple[float, float]] = {}
    for neighbor, link_value in direct.items():
        start = metric.combine(metric.identity, link_value)
        if neighbor == destination:
            candidates[neighbor] = (start, 1.0)
            continue
        remainder = from_destination.get(neighbor)
        if remainder is not None:
            hop_estimate = 1.0 + distance.get(index[neighbor], float("inf"))
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

    Per-hop forwarding (:meth:`next_hop`, :meth:`route`, :meth:`routing_table`) builds one
    compact snapshot of the advertised links at the router's first decision, so its answers
    use the link weights as they were then; link-state routes read the network's current
    weights and cache nothing.
    """

    def __init__(self, network: Network, advertised: AdvertisedTopology, metric: Metric):
        self.network = network
        self.advertised = advertised
        self.metric = metric
        self._advertised_compact: Optional[CompactGraph] = None

    def _advertised_compact_graph(self) -> CompactGraph:
        """One flat snapshot of the advertised links, shared by every next-hop solve.

        It holds every network node, sorted, and the advertised links in ``ans_sets``
        order, valued from the network's weights now.  The advertised sets are fixed for
        the router's lifetime, so the per-hop ``best_values_from`` calls can all reuse it
        (excluded nodes are handled at solver level).
        """
        if self._advertised_compact is None:
            network = self.advertised.network
            adjacency = network.adjacency
            links: Links = {node: {} for node in network.nodes()}
            for node, selected in self.advertised.ans_sets.items():
                for relay in selected:
                    links[node][relay] = links[relay][node] = adjacency[node][relay]
            self._advertised_compact = CompactGraph.from_links(links, self.metric)
        return self._advertised_compact

    # ------------------------------------------------------------------ next-hop decision

    def next_hop(self, current: NodeId, destination: NodeId) -> Optional[NodeId]:
        """The neighbor ``current`` forwards to for ``destination`` (None when it has no route).

        The decision is :func:`best_next_hop` over ``current``'s knowledge: the advertised
        topology plus ``current``'s own one-hop links.
        """
        metric = self.metric
        if destination == current:
            return None
        own_neighbors = self.network.neighbors(current)
        direct = {
            neighbor: self.network.link_value(current, neighbor, metric)
            for neighbor in own_neighbors
        }
        chosen = best_next_hop(
            self._advertised_compact_graph(), current, destination, direct, metric
        )
        return chosen[0] if chosen is not None else None

    # ------------------------------------------------------------------ link-state routing

    def link_state_route(self, source: NodeId, destination: NodeId) -> RouteOutcome:
        """The QoS-optimal route over the source's link-state database.

        In OLSR every node computes its routing table on the TC-learned topology plus the
        HELLO-learned neighborhood: RFC 3626's route calculation first adds routes to the
        one- and two-hop neighbors from the neighbor tables, then extends them over the
        advertised topology.  This method models exactly that: one QoS-weighted
        shortest/widest-path search over the links the source knows.  A link ``(a, b)`` is
        known to ``source`` when it is advertised (``b ∈ ANS(a)`` or ``a ∈ ANS(b)``) or
        when ``a`` or ``b`` is a one-hop neighbor of ``source`` (HELLO piggybacking); the
        source's own links are among the latter.  It is what the overhead experiments (the
        paper's Figures 8 and 9) use, and unlike per-hop recomputation it cannot loop:
        bottleneck metrics tie so often that independently recomputed per-hop decisions
        (see :meth:`route`) may bounce a packet between equally wide detours, something a
        real implementation avoids precisely because all nodes share the same link-state
        database.

        The search scans the network's adjacency rows, restricted to the known links, in
        the network's adjacency order, and reads the network's current weights, so a
        route depends only on the advertised sets and the network as it is now.

        Including the HELLO-learned two-hop links (not only the source's own links) is what
        guarantees that every destination within two hops stays reachable even when its
        incident links go unadvertised -- both endpoints of a link consider each other
        covered by the optimal direct link, so neither selects (and hence advertises) the
        other; the regression test for that situation lives in
        ``tests/test_fnbp_loop_guard.py``.
        """
        network = self.network
        metric = self.metric
        if source not in network or destination not in network:
            raise KeyError("source and destination must belong to the network")
        if source == destination:
            return RouteOutcome(source, destination, (source,), True, metric.identity)

        adjacency = network.adjacency
        one_hop = adjacency[source]
        advertised = self.advertised.neighbors

        def known_rows(node: NodeId):
            row = adjacency[node].items()
            if node in one_hop:  # every link of a one-hop neighbor is HELLO-learned
                return row
            theirs = advertised.get(node, ())
            return (
                (other, attributes)
                for other, attributes in row
                if other in one_hop or other in theirs
            )

        route = _label_setting(known_rows, source, destination, metric)
        if not route.reachable or not metric.is_usable(route.value):
            return RouteOutcome(source, destination, (source,), False, metric.worst, "no-route")
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
