"""The broadcast channel of the event-driven protocol simulator.

Transmissions reach the sender's current neighbors via delivery callbacks scheduled on
the shared event queue.  The network may be *live* (a
:class:`~repro.mobility.dynamic.DynamicTopology` mutates it in place between windows, and
the neighbor set is read at send time), and every individual transmission -- broadcast
control traffic and unicast data hops alike -- is subjected to the
:class:`~repro.protocol.loss.LossModel`.  With ``loss_rate=0`` (the default) nothing is
ever lost and the delay is fixed: the paper's ideal MAC layer.

The radio owns the per-directed-link transmission counters that identify draws: the
``seq`` handed to the loss model is "how many transmissions this radio has attempted on
``src -> dst`` so far", a pure function of the trial's own event history (see
:mod:`repro.protocol.loss` for why OLSR message sequence numbers must not be used).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, Tuple

from repro.obs import runtime as obs
from repro.olsr.messages import Packet
from repro.protocol.loss import LossModel
from repro.sim.engine import Simulator
from repro.topology.network import Network
from repro.utils.ids import NodeId

DeliveryCallback = Callable[[NodeId, Packet], None]


@dataclass
class LossyRadioStatistics:
    """Channel-level counters (transmissions = attempted per-receiver deliveries)."""

    broadcasts: int = 0
    unicasts: int = 0
    transmissions: int = 0
    deliveries: int = 0
    losses: int = 0
    undeliverable_unicasts: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (sweep ``extra`` payloads, telemetry)."""
        return asdict(self)


class LossyRadio:
    """Broadcast medium over a live topology with seeded per-transmission loss/delay."""

    def __init__(
        self,
        network: Network,
        simulator: Simulator,
        deliver: DeliveryCallback,
        loss_model: LossModel,
    ) -> None:
        self.network = network
        self.simulator = simulator
        self.deliver = deliver
        self.loss_model = loss_model
        self.statistics = LossyRadioStatistics()
        self._tx_counts: Dict[Tuple[NodeId, NodeId], int] = {}

    # ------------------------------------------------------------------ transmissions

    def broadcast(self, sender: NodeId, packet: Packet) -> None:
        """Attempt delivery to every *current* neighbor of ``sender``."""
        self.statistics.broadcasts += 1
        for neighbor in sorted(self.network.neighbors(sender)):
            self._transmit(sender, neighbor, packet)

    def unicast(self, sender: NodeId, receiver: NodeId, packet: Packet) -> None:
        """Attempt delivery to ``receiver`` if it is currently within range of ``sender``."""
        self.statistics.unicasts += 1
        if not self.network.has_link(sender, receiver):
            self.statistics.undeliverable_unicasts += 1
            return
        self._transmit(sender, receiver, packet)

    # ------------------------------------------------------------------ internals

    def _transmit(self, src: NodeId, dst: NodeId, packet: Packet) -> None:
        seq = self._tx_counts.get((src, dst), 0)
        self._tx_counts[(src, dst)] = seq + 1
        self.statistics.transmissions += 1
        if not self.loss_model.delivered(src, dst, seq):
            self.statistics.losses += 1
            return

        def deliver() -> None:
            self.statistics.deliveries += 1
            self.deliver(dst, packet)

        self.simulator.schedule_in(self.loss_model.delay(src, dst, seq), deliver)

    # ------------------------------------------------------------------ telemetry

    def record_telemetry(self, prefix: str = "protocol.radio") -> None:
        """Fold the channel counters into the ambient telemetry registry (if enabled).

        Counter values are pure functions of the seeded event history, so they land in
        the deterministic section of the registry snapshot.
        """
        if not obs.enabled():
            return
        for name, value in self.statistics.as_dict().items():
            obs.add(f"{prefix}.{name}", value)
