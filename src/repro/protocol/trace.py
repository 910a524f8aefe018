"""Event tracing for protocol simulations (the one tracing path of the repo).

The trace records what happened and when (message emissions, triggered TCs, topology
steps, data-packet hops) so that tests and examples can inspect protocol behaviour --
e.g. reconstruct the path a data packet actually took, count the control overhead
generated per protocol variant, or check that a churn step triggered a TC.  The
event-driven :class:`~repro.protocol.simulator.ProtocolSimulator` records into it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.utils.ids import NodeId


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    time: float
    kind: str
    node: Optional[NodeId] = None
    detail: Tuple[Tuple[str, object], ...] = ()

    def detail_dict(self) -> dict:
        return dict(self.detail)


class EventTrace:
    """An append-only list of :class:`TraceEvent` with simple query helpers."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, time: float, kind: str, node: Optional[NodeId] = None, **detail: object) -> None:
        self._events.append(
            TraceEvent(time=time, kind=kind, node=node, detail=tuple(sorted(detail.items())))
        )

    # ------------------------------------------------------------------ queries

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Number of recorded events per kind."""
        return dict(Counter(event.kind for event in self._events))

    def data_packet_path(self, packet_id: int) -> List[NodeId]:
        """The sequence of nodes a data packet visited (origination + every reception)."""
        path: List[NodeId] = []
        for event in self._events:
            if event.kind in ("data-originated", "data-received") and event.detail_dict().get("packet_id") == packet_id:
                if event.node is not None and (not path or path[-1] != event.node):
                    path.append(event.node)
        return path

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)
