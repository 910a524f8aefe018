"""Link-state routing over the advertised topology.

OLSR routing is link-state: each node computes its routes from its own knowledge -- the
advertised (TC-learned) topology plus the HELLO-learned links around it.
:meth:`HopByHopRouter.link_state_route`, what the paper's Figures 8 and 9 measure, runs one
QoS-weighted search over the network's own adjacency, restricted to the links the source
knows, and reads the network's current weights; the router holds no state of its own.
When the advertised sets are chosen badly a destination can become unreachable, which the
route reports as ``"no-route"``.  The paper's Figure 4 loop comes from the selections
alone: :func:`~repro.core.fnbp.covering_relays` shows it on the reconstructed Figure 4
network (:mod:`repro.papergraphs.figure4`), and ``tests/test_fnbp_loop_guard.py`` pins it.
Per-hop forwarding over real protocol tables is the protocol simulator's
(:meth:`~repro.protocol.simulator.ProtocolSimulator.send_data`).

The QoS value "consumed" by a delivered packet (the paper's ``b`` and ``d``) is the value of
the traversed path computed on the *true* link weights of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.metrics.base import Metric
from repro.routing.advertised import AdvertisedTopology
from repro.routing.optimal import _label_setting
from repro.topology.network import Network
from repro.utils.ids import NodeId


@dataclass(frozen=True)
class RouteOutcome:
    """The result of routing one packet.

    ``value`` is the QoS value of the traversed path on the true link weights (only
    meaningful when ``delivered``); ``failure`` is ``"no-route"`` otherwise.
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
    """Routes packets link-state style over an advertised topology (stateless)."""

    def __init__(self, network: Network, advertised: AdvertisedTopology, metric: Metric):
        self.network = network
        self.advertised = advertised
        self.metric = metric

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
        may bounce a packet between equally wide detours, something a real implementation
        avoids precisely because all nodes share the same link-state database.

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

    # ------------------------------------------------------------------ helpers

    def _path_value(self, path: List[NodeId]) -> float:
        value = self.metric.identity
        for u, v in zip(path, path[1:]):
            value = self.metric.combine(value, self.network.link_value(u, v, self.metric))
        return value
