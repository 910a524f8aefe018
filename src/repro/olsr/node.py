"""The OLSR/QOLSR node state machine.

An :class:`OlsrNode` owns the protocol tables of one device and implements the protocol
logic independently of how messages are transported, so the same class is driven either by
the protocol simulator (:mod:`repro.protocol`) or directly by tests:

* it *emits* HELLO and TC messages when asked (the simulator schedules the asks);
* it *consumes* packets handed to it and returns the packets it wants to transmit in
  response (TC forwarding via the MPR flooding rule, data-packet forwarding via its routing
  table);
* it runs a pluggable :class:`~repro.core.selection.AnsSelector` to decide its advertised
  set, which is how OLSR, QOLSR and FNBP variants are simulated with the same engine.

Per Moraru & Simplot-Ryl (and the paper), flooding always uses the RFC 3626 MPR set; the
selector only controls what is *advertised* (and therefore what everyone routes on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.fnbp import FnbpSelector
from repro.core.selection import AnsSelector
from repro.localview.view import LocalView
from repro.metrics.base import Metric
from repro.olsr import constants
from repro.olsr.duplicate_set import DuplicateSet
from repro.olsr.messages import (
    AdvertisedLink,
    DataPacket,
    HelloMessage,
    LinkReport,
    Packet,
    TcMessage,
    next_sequence_number,
)
from repro.olsr.mpr import rfc3626_mpr
from repro.olsr.neighbor_table import NeighborTable
from repro.olsr.routing_table import RoutingTable
from repro.olsr.topology_table import TopologyTable
from repro.utils.ids import NodeId


@dataclass
class NodeStatistics:
    """Counters a node keeps about its own protocol activity."""

    hellos_sent: int = 0
    tcs_sent: int = 0
    tcs_forwarded: int = 0
    data_originated: int = 0
    data_forwarded: int = 0
    data_delivered: int = 0
    data_dropped: int = 0


class OlsrNode:
    """Protocol state and behaviour of one node."""

    def __init__(
        self,
        node_id: NodeId,
        metric: Metric,
        selector: Optional[AnsSelector] = None,
        link_weights: Optional[Mapping[NodeId, Mapping[str, float]]] = None,
        neighbor_hold_time: float = constants.NEIGHBOR_HOLD_TIME,
        topology_hold_time: float = constants.TOPOLOGY_HOLD_TIME,
    ) -> None:
        self.node_id = node_id
        self.metric = metric
        self.neighbor_hold_time = neighbor_hold_time
        self.topology_hold_time = topology_hold_time
        self.selector = selector if selector is not None else FnbpSelector()
        self.neighbor_table = NeighborTable(node_id)
        self.topology_table = TopologyTable(node_id)
        self.routing_table = RoutingTable(node_id, metric)
        self.duplicates = DuplicateSet()
        self.statistics = NodeStatistics()
        self.mpr_set: frozenset[NodeId] = frozenset()
        self.ans_set: frozenset[NodeId] = frozenset()
        self._ansn = 0
        self._link_weights: Dict[NodeId, Dict[str, float]] = {
            node: dict(weights) for node, weights in (link_weights or {}).items()
        }

    # ------------------------------------------------------------------ link measurements

    def set_link_weights(self, neighbor: NodeId, weights: Mapping[str, float]) -> None:
        """Record the locally measured QoS of the link towards ``neighbor``.

        QoS measurement itself is out of the paper's scope; the simulator injects the
        ground-truth weights of the topology here.
        """
        self._link_weights[neighbor] = dict(weights)

    def link_weights(self, neighbor: NodeId) -> Dict[str, float]:
        return dict(self._link_weights.get(neighbor, {}))

    # ------------------------------------------------------------------ local view / selection

    def local_view(self) -> LocalView:
        """The node's current ``G_u`` as reconstructed from its protocol tables."""
        return LocalView.from_tables(
            owner=self.node_id,
            neighbor_links=self.neighbor_table.neighbor_link_table(),
            two_hop_links=self.neighbor_table.two_hop_link_table(),
        )

    def refresh_selection(self) -> None:
        """Recompute the MPR set (RFC 3626) and the advertised set (pluggable selector)."""
        view = self.local_view()
        self.mpr_set = rfc3626_mpr(view)
        self.ans_set = frozenset(self.selector.select(view, self.metric).selected)
        self._ansn += 1

    # ------------------------------------------------------------------ message generation

    def make_hello(self) -> HelloMessage:
        """Build the node's periodic HELLO from its current tables."""
        reports = []
        for neighbor in sorted(self.neighbor_table.neighbors()):
            reports.append(
                LinkReport(
                    neighbor=neighbor,
                    weights=self.neighbor_table.neighbor_weights(neighbor),
                    is_mpr=neighbor in self.mpr_set,
                )
            )
        self.statistics.hellos_sent += 1
        return HelloMessage(
            originator=self.node_id,
            sequence_number=next_sequence_number(),
            links=tuple(reports),
        )

    def make_tc(self) -> Optional[TcMessage]:
        """Build the node's periodic TC message.

        The advertised links are the links towards the nodes of the node's advertised set
        (its ANS), following the paper's model in which the ANS is what TC messages carry.
        A node with an empty advertised set emits no TC, like an RFC 3626 node with no MPR
        selectors.
        """
        if not self.ans_set:
            return None
        advertised = tuple(
            AdvertisedLink(selector=neighbor, weights=self.link_weights(neighbor))
            for neighbor in sorted(self.ans_set)
        )
        self.statistics.tcs_sent += 1
        return TcMessage(
            originator=self.node_id,
            sequence_number=next_sequence_number(),
            ansn=self._ansn,
            advertised=advertised,
        )

    # ------------------------------------------------------------------ message consumption

    def handle_packet(self, packet: Packet, now: float = 0.0) -> List[Packet]:
        """Process a received packet and return the packets to transmit in response."""
        message = packet.message
        if isinstance(message, HelloMessage):
            self._handle_hello(message, now)
            return []
        if isinstance(message, TcMessage):
            return self._handle_tc(packet, now)
        if isinstance(message, DataPacket):
            return self._handle_data(packet)
        raise TypeError(f"node {self.node_id} cannot handle message of type {type(message).__name__}")

    def _handle_hello(self, hello: HelloMessage, now: float) -> None:
        weights = self.link_weights(hello.originator)
        self.neighbor_table.update_from_hello(
            hello,
            link_weights=weights,
            now=now,
            hold_time=self.neighbor_hold_time,
        )

    def _handle_tc(self, packet: Packet, now: float) -> List[Packet]:
        tc: TcMessage = packet.message
        if tc.originator == self.node_id:
            return []
        if not self.duplicates.already_processed(tc.originator, tc.sequence_number):
            self.duplicates.mark_processed(
                tc.originator, tc.sequence_number, now + constants.DUPLICATE_HOLD_TIME
            )
            self.topology_table.update_from_tc(tc, now=now, hold_time=self.topology_hold_time)

        # MPR flooding rule: retransmit only messages first heard from a neighbor that
        # selected this node as MPR, at most once, while TTL remains.
        if packet.ttl <= 1:
            return []
        if self.duplicates.already_retransmitted(tc.originator, tc.sequence_number):
            return []
        if packet.sender not in self.neighbor_table.mpr_selectors():
            return []
        self.duplicates.mark_retransmitted(
            tc.originator, tc.sequence_number, now + constants.DUPLICATE_HOLD_TIME
        )
        self.statistics.tcs_forwarded += 1
        return [packet.forwarded_by(self.node_id)]

    def _handle_data(self, packet: Packet) -> List[Packet]:
        data: DataPacket = packet.message
        if data.destination == self.node_id:
            self.statistics.data_delivered += 1
            return []
        if packet.ttl <= 1:
            self.statistics.data_dropped += 1
            return []
        next_hop = self.routing_table.next_hop(data.destination)
        if next_hop is None:
            self.statistics.data_dropped += 1
            return []
        self.statistics.data_forwarded += 1
        return [packet.forwarded_by(self.node_id)]

    # ------------------------------------------------------------------ periodic maintenance

    def recompute_routes(self) -> None:
        self.routing_table.recompute(self.neighbor_table, self.topology_table)

    def originate_data(self, destination: NodeId, payload: object = None) -> Optional[Packet]:
        """Create a data packet towards ``destination`` (None when no route exists)."""
        self.statistics.data_originated += 1
        data = DataPacket(source=self.node_id, destination=destination, payload=payload)
        if destination != self.node_id and self.routing_table.next_hop(destination) is None:
            self.statistics.data_dropped += 1
            return None
        return Packet(message=data, sender=self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OlsrNode(id={self.node_id}, neighbors={len(self.neighbor_table)}, "
            f"mpr={sorted(self.mpr_set)}, ans={sorted(self.ans_set)})"
        )
