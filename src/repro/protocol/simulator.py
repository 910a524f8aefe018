"""The event-driven OLSR protocol simulator.

One :class:`ProtocolSimulator` runs one selection algorithm over one (live) network: a
full :class:`~repro.olsr.node.OlsrNode` agent per network node, driven by per-node
asynchronous timers on a shared :class:`~repro.sim.engine.Simulator` event queue, over
the :class:`~repro.protocol.radio.LossyRadio` control channel.

Per-node behaviour (RFC 3626 shapes, intervals configurable per spec):

* **HELLO loop** -- emission ``k`` fires at ``k * hello_interval`` plus a small seeded
  jitter (decorrelating neighbors without leaving the period), after expiring stale
  table entries and refreshing the node's MPR/ANS selection.
* **TC loop** -- emission ``k`` fires at ``k * tc_interval`` plus jitter (``k >= 1``);
  a node whose advertised set is empty stays silent, like an RFC 3626 node with no MPR
  selectors.
* **Purge loop** -- halfway through every HELLO period each node expires neighbor,
  topology and duplicate entries, so stale state dies even while a node's own HELLO
  timer is still pending.  Entry lifetimes scale with the configured intervals:
  neighbor entries live ``3 x hello_interval``, topology entries ``3 x tc_interval``.
* **Triggered TC** -- when a received HELLO changes the node's MPR-selector set (someone
  started or stopped announcing it as MPR), a one-shot TC is scheduled after a short
  jitter, RFC 3626's triggered-update rule.  At most one trigger is pending per node.

Data packets (:meth:`send_data`) travel hop by hop as unicasts over the same channel,
so they can be lost like control traffic; each node on the way takes a snapshot of its
current tables and solves the destination it forwards to.  With the default
``LossModel(loss_rate=0)`` the channel is the paper's ideal MAC layer.

Attached to a :class:`~repro.mobility.dynamic.DynamicTopology` via :meth:`attach`, the
simulator observes every ``advance()`` through the driver's step-listener stream: link
flips take effect immediately (the radio reads neighbors at send time), the step's churn
is recorded for the convergence measures, and the agents discover the change the
protocol way -- missed HELLOs, expiring entries, re-flooded TCs.

Determinism: every draw (jitter, loss, delay) derives from the constructor ``seed``
through pure :func:`~repro.utils.seeding.spawn_rng` labels (computed by
:class:`~repro.utils.seeding.DerivedDraws`, which gives the same numbers without
building a generator per draw), event ties break by insertion order, and neighbor
iteration is sorted -- equal seeds give bit-identical runs in any process (the
serial-vs-``REPRO_WORKERS`` contract of the measures built on top, see
:mod:`repro.protocol.measures`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.selection import make_selector
from repro.metrics.base import Metric
from repro.obs import runtime as obs
from repro.olsr.messages import DataPacket, HelloMessage, Packet, TcMessage
from repro.olsr.node import OlsrNode
from repro.protocol.loss import LossModel
from repro.protocol.radio import LossyRadio
from repro.protocol.trace import EventTrace
from repro.sim.engine import Simulator
from repro.topology.network import Network
from repro.utils.ids import NodeId
from repro.utils.seeding import DerivedDraws, derive_seed
from repro.utils.validation import require_positive

#: Fraction of the period used as the maximum emission jitter (RFC 3626 recommends
#: jittering periodic emissions; keeping it well under one period keeps emissions
#: aligned to their period window, which the zero-loss anchor test relies on).
JITTER_FRACTION = 0.1

#: Hold times as multiples of the emission interval (RFC 3626: validity = 3 periods).
HOLD_PERIODS = 3.0


@dataclass(frozen=True)
class DeliveryReport:
    """Outcome of injecting one data packet into the simulated network."""

    source: NodeId
    destination: NodeId
    delivered: bool
    path: Tuple[NodeId, ...]
    value: float
    hop_count: int


class ProtocolSimulator:
    """Per-node OLSR agents exchanging real HELLO/TC traffic over a lossy channel."""

    def __init__(
        self,
        network: Network,
        metric: Metric,
        selector_name: str = "fnbp",
        seed: int = 0,
        hello_interval: float = 2.0,
        tc_interval: float = 5.0,
        loss_model: Optional[LossModel] = None,
    ) -> None:
        require_positive(hello_interval, "hello_interval")
        require_positive(tc_interval, "tc_interval")
        self.network = network
        self.metric = metric
        self.selector_name = selector_name
        self.seed = seed
        self.hello_interval = hello_interval
        self.tc_interval = tc_interval
        self.loss_model = (
            loss_model if loss_model is not None else LossModel(seed=derive_seed(seed, "loss-model"))
        )
        self._draws = DerivedDraws(seed)
        self.simulator = Simulator()
        self.trace = EventTrace()
        self.neighbor_hold_time = HOLD_PERIODS * hello_interval
        self.topology_hold_time = HOLD_PERIODS * tc_interval

        self.nodes: Dict[NodeId, OlsrNode] = {}
        for node_id in network.nodes():
            self.nodes[node_id] = OlsrNode(
                node_id=node_id,
                metric=metric,
                selector=make_selector(selector_name),
                neighbor_hold_time=self.neighbor_hold_time,
                topology_hold_time=self.topology_hold_time,
            )

        self.radio = LossyRadio(
            network=network,
            simulator=self.simulator,
            deliver=self._deliver,
            loss_model=self.loss_model,
        )

        #: Steps (by :attr:`StepDelta.step` index) whose advance flipped at least one link.
        self.churn_steps: List[int] = []
        self._triggered_pending: Set[NodeId] = set()
        self._trigger_counts: Dict[NodeId, int] = {}
        for node_id in network.nodes():
            self._schedule_hello(node_id, 0)
            self._schedule_tc(node_id, 1)
            self._schedule_purge(node_id, 0)

    # ------------------------------------------------------------------ timers

    def _jitter(self, label: str, node_id: NodeId, index: int, interval: float) -> float:
        # spawn_rng(seed, label, node_id, index).uniform(0, JITTER_FRACTION * interval)
        return self._draws.uniform((label, node_id), index, 0.0, JITTER_FRACTION * interval)

    def _schedule_hello(self, node_id: NodeId, index: int) -> None:
        at = index * self.hello_interval + self._jitter("hello-jitter", node_id, index, self.hello_interval)

        def emit() -> None:
            node = self.nodes[node_id]
            self._purge_node(node)
            node.refresh_selection()
            hello = node.make_hello()
            self.trace.record(self.simulator.now, "hello-sent", node_id)
            self.radio.broadcast(node_id, Packet(message=hello, sender=node_id))
            self._schedule_hello(node_id, index + 1)

        self.simulator.schedule_at(at, emit)

    def _schedule_tc(self, node_id: NodeId, index: int) -> None:
        at = index * self.tc_interval + self._jitter("tc-jitter", node_id, index, self.tc_interval)

        def emit() -> None:
            node = self.nodes[node_id]
            node.refresh_selection()
            tc = node.make_tc()
            if tc is not None:
                self.trace.record(self.simulator.now, "tc-sent", node_id)
                self.radio.broadcast(node_id, Packet(message=tc, sender=node_id))
            self._schedule_tc(node_id, index + 1)

        self.simulator.schedule_at(at, emit)

    def _schedule_purge(self, node_id: NodeId, index: int) -> None:
        at = (index + 0.5) * self.hello_interval

        def run() -> None:
            self._purge_node(self.nodes[node_id])
            self._schedule_purge(node_id, index + 1)

        self.simulator.schedule_at(at, run)

    def _purge_node(self, node: OlsrNode) -> None:
        now = self.simulator.now
        node.neighbor_table.expire(now)
        node.topology_table.expire(now)
        node.duplicates.expire(now)

    def _trigger_tc(self, node_id: NodeId) -> None:
        if node_id in self._triggered_pending:
            return
        self._triggered_pending.add(node_id)
        count = self._trigger_counts.get(node_id, 0)
        self._trigger_counts[node_id] = count + 1
        delay = self._jitter("trigger-jitter", node_id, count, self.hello_interval)

        def emit() -> None:
            self._triggered_pending.discard(node_id)
            node = self.nodes[node_id]
            node.refresh_selection()
            tc = node.make_tc()
            if tc is not None:
                self.trace.record(self.simulator.now, "tc-triggered", node_id)
                self.radio.broadcast(node_id, Packet(message=tc, sender=node_id))

        self.simulator.schedule_in(delay, emit)

    # ------------------------------------------------------------------ reception

    def _deliver(self, receiver: NodeId, packet: Packet) -> None:
        node = self.nodes[receiver]
        now = self.simulator.now
        message = packet.message
        if isinstance(message, HelloMessage):
            # Hearing a neighbor's HELLO is when a node (re-)measures the link towards it;
            # the simulator injects the live topology's ground-truth attributes (QoS
            # measurement itself is out of the paper's scope).  The link may have vanished
            # between transmission and delivery -- then the last measurement stands.
            origin = message.originator
            if self.network.has_link(receiver, origin):
                node.set_link_weights(origin, self.network.link_attributes(receiver, origin))
            before = node.neighbor_table.mpr_selectors()
            node.handle_packet(packet, now=now)
            if node.neighbor_table.mpr_selectors() != before:
                self._trigger_tc(receiver)
            return
        if isinstance(message, DataPacket):
            self.trace.record(now, "data-received", receiver, packet_id=message.identifier)
            node.recompute_routes()
            for response in node.handle_packet(packet, now=now):
                self._forward_data(receiver, response)
            return
        for response in node.handle_packet(packet, now=now):
            if isinstance(response.message, TcMessage):
                self.trace.record(now, "tc-forwarded", receiver)
            self.radio.broadcast(receiver, response)

    # ------------------------------------------------------------------ topology steps

    def attach(self, dynamic) -> None:
        """Subscribe to a :class:`~repro.mobility.dynamic.DynamicTopology` step stream.

        The driver must own the same live :class:`Network` this simulator transmits
        over.  Each ``advance()`` is recorded in the trace (and in :attr:`churn_steps`
        when it flipped links); the agents themselves only notice through the channel.
        """
        if dynamic.network is not self.network:
            raise ValueError("the dynamic topology must drive the simulator's own network")
        dynamic.add_step_listener(self._record_step)

    def _record_step(self, delta) -> None:
        if delta.link_churn:
            self.churn_steps.append(delta.step)
        self.trace.record(
            self.simulator.now, "topology-step", None, step=delta.step, churn=delta.link_churn
        )

    # ------------------------------------------------------------------ running

    def run_until(self, end_time: float) -> None:
        """Advance the protocol to absolute simulation time ``end_time``."""
        self.simulator.run_until(end_time)

    # ------------------------------------------------------------------ observation

    def ans_snapshot(self) -> Dict[NodeId, FrozenSet[NodeId]]:
        """The advertised set each node's *current tables* imply (non-mutating probe).

        Unlike :meth:`ans_sets` this does not depend on where each node is in its HELLO
        period: it selects on every node's table-derived local view without touching
        protocol state, so observations at window boundaries see the tables as they are,
        not as they were at the last periodic refresh.  The selection is the node's
        memoized :meth:`~repro.olsr.node.OlsrNode.current_selection`, so the selector
        only runs where the tables changed since the node last selected.
        """
        return {node_id: node.current_selection()[1] for node_id, node in self.nodes.items()}

    def ans_sets(self) -> Dict[NodeId, FrozenSet[NodeId]]:
        """Every node's advertised set as of its last selection refresh."""
        return {node_id: node.ans_set for node_id, node in self.nodes.items()}

    def mpr_sets(self) -> Dict[NodeId, FrozenSet[NodeId]]:
        """Every node's RFC 3626 MPR set as of its last selection refresh."""
        return {node_id: node.mpr_set for node_id, node in self.nodes.items()}

    def advertised_link_sets(self) -> Dict[NodeId, FrozenSet[Tuple[NodeId, NodeId]]]:
        """Each node's topology-table content as a set of canonical undirected links."""
        return {
            node_id: node.topology_table.advertised_link_keys()
            for node_id, node in self.nodes.items()
        }

    def next_hops(self, pairs: Sequence[Tuple[NodeId, NodeId]]) -> List[Optional[NodeId]]:
        """Current next hop of every (source, destination) pair, from the source's tables.

        Each distinct source snapshots its tables first, then solves only the destinations
        asked of it (route computation is demand-driven here; the periodic loops only
        maintain the tables routes are computed *from*).
        """
        for source in sorted({source for source, _ in pairs}):
            self.nodes[source].recompute_routes()
        return [self.nodes[source].routing_table.next_hop(destination) for source, destination in pairs]

    def send_data(
        self, source: NodeId, destination: NodeId, settle_delay: float = 1.0
    ) -> DeliveryReport:
        """Inject one data packet at ``source`` and report whether and how it arrived.

        The packet is unicast hop by hop over the channel, each node choosing its next hop
        from a snapshot of its tables taken on the spot (as in :meth:`next_hops`); the
        simulation then runs ``settle_delay`` time units, periodic traffic included.  A
        packet lost or dropped on the way reports ``delivered=False`` with the path it
        covered.  A packet addressed to its own source is received there at once, and
        nothing is transmitted.
        """
        if source not in self.nodes or destination not in self.nodes:
            raise KeyError(f"source {source!r} and destination {destination!r} must be simulated nodes")
        origin = self.nodes[source]
        origin.recompute_routes()
        packet = origin.originate_data(destination)
        if packet is None:
            return DeliveryReport(source, destination, False, (source,), self.metric.worst, 0)
        packet_id = packet.message.identifier
        self.trace.record(self.simulator.now, "data-originated", source, packet_id=packet_id)
        if destination == source:
            self._deliver(source, packet)
        else:
            self._forward_data(source, packet)
        self.run_until(self.simulator.now + settle_delay)

        path = tuple(self.trace.data_packet_path(packet_id))
        delivered = path[-1] == destination
        value = self.metric.worst
        if delivered:
            value = self.metric.path_value(
                self.network.link_value(u, v, self.metric) for u, v in zip(path, path[1:])
            )
        return DeliveryReport(source, destination, delivered, path, value, len(path) - 1)

    def _forward_data(self, sender: NodeId, packet: Packet) -> None:
        message = packet.message
        next_hop = self.nodes[sender].routing_table.next_hop(message.destination)
        if next_hop is None:
            self.trace.record(self.simulator.now, "data-dropped", sender, packet_id=message.identifier)
            return
        self.trace.record(
            self.simulator.now, "data-forwarded", sender, packet_id=message.identifier, next_hop=next_hop
        )
        self.radio.unicast(sender, next_hop, packet)

    def control_message_counts(self) -> Dict[str, int]:
        """Aggregate control-traffic counters across all nodes and the channel."""
        totals = {"hellos_sent": 0, "tcs_sent": 0, "tcs_forwarded": 0}
        for node in self.nodes.values():
            totals["hellos_sent"] += node.statistics.hellos_sent
            totals["tcs_sent"] += node.statistics.tcs_sent
            totals["tcs_forwarded"] += node.statistics.tcs_forwarded
        totals["transmissions"] = self.radio.statistics.transmissions
        totals["deliveries"] = self.radio.statistics.deliveries
        totals["losses"] = self.radio.statistics.losses
        return totals

    def record_telemetry(self) -> None:
        """Fold this simulation's control-traffic truth into the ambient telemetry registry.

        Called by the protocol measures when a per-selector simulation finishes: the
        per-message-type counts (``protocol.hellos_sent`` etc.), the event queue's
        ``protocol.events_processed`` and the channel's full
        :meth:`~repro.protocol.radio.LossyRadioStatistics.as_dict` counters
        (``protocol.radio.*``).  Everything recorded here is a pure function of the
        seeded event history, i.e. deterministic serial vs ``REPRO_WORKERS``.  A no-op
        while telemetry is off.
        """
        if not obs.enabled():
            return
        for name, value in self.control_message_counts().items():
            if name in ("transmissions", "deliveries", "losses"):
                continue  # already covered, with more detail, by protocol.radio.*
            obs.add(f"protocol.{name}", value)
        obs.add("protocol.events_processed", self.simulator.processed_events)
        self.radio.record_telemetry()
