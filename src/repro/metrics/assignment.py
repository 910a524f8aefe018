"""Assignment of QoS weights to the links of a network.

The paper's simulation draws every link weight "uniformly at random in a fixed interval".
:class:`UniformWeightAssigner` reproduces that, deterministically from a seed; the other
assigners support the worked examples (explicit weights) and extensions (distance-dependent
delay, energy models).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.metrics.base import Metric
from repro.utils.ids import NodeId
from repro.utils.seeding import DerivedDraws
from repro.utils.validation import require_positive

Edge = Tuple[NodeId, NodeId]


def canonical_edge(u: NodeId, v: NodeId) -> Edge:
    """Return the undirected edge (u, v) in canonical (sorted) order.

    Links in the reproduced model are bidirectional and carry a single weight per metric, so
    every weight table is keyed by the canonical orientation.
    """
    return (u, v) if u <= v else (v, u)


class WeightAssigner(ABC):
    """Produces, for one metric, a weight for every link of a network."""

    #: The metric whose edge attribute this assigner populates.
    metric: Metric

    #: True when a link's weight does not depend on node positions (only on the edge and
    #: the assigner's own state).  The dynamic-topology driver requires this: it draws a
    #: link's weights once, when the link (re)appears, so a position-dependent draw would
    #: silently go stale as nodes move (see :class:`repro.mobility.dynamic.DynamicTopology`).
    position_independent: bool = True

    @abstractmethod
    def assign(self, edges: list[Edge], positions: Mapping[NodeId, Tuple[float, float]]) -> Dict[Edge, float]:
        """Return a weight for every edge (keys are canonical edges)."""


@dataclass
class UniformWeightAssigner(WeightAssigner):
    """Draw each link weight independently and uniformly from ``[low, high]``.

    This is the paper's setting.  The draw is a pure function of ``(seed, metric name, edge)``
    so that re-generating the same topology with the same seed yields identical weights
    regardless of edge iteration order.
    """

    metric: Metric
    low: float = 1.0
    high: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive(self.high, "high")
        if self.low > self.high:
            raise ValueError(f"low ({self.low}) must not exceed high ({self.high})")
        self.metric.validate_link_value(self.low if self.low > 0 else self.high)
        # Draw cache, not a field: equality and repr see only the four fields.
        self._draws = DerivedDraws(self.seed)

    def assign(
        self,
        edges: list[Edge],
        positions: Mapping[NodeId, Tuple[float, float]],
    ) -> Dict[Edge, float]:
        """Each weight is ``spawn_rng(seed, "link-weight", metric.name, edge).uniform(low, high)``."""
        draws = self._draws
        if draws.seed != self.seed:  # the field was reassigned after construction
            draws = self._draws = DerivedDraws(self.seed)
        prefix = ("link-weight", self.metric.name)
        weights: Dict[Edge, float] = {}
        for edge in edges:
            edge = canonical_edge(*edge)
            weights[edge] = draws.uniform(prefix, edge, self.low, self.high)
        return weights


@dataclass
class ConstantWeightAssigner(WeightAssigner):
    """Assign the same weight to every link (useful for hop-count and control experiments)."""

    metric: Metric
    value: float = 1.0

    def assign(
        self,
        edges: list[Edge],
        positions: Mapping[NodeId, Tuple[float, float]],
    ) -> Dict[Edge, float]:
        value = self.metric.validate_link_value(self.value)
        return {canonical_edge(*edge): value for edge in edges}


@dataclass
class DistanceProportionalAssigner(WeightAssigner):
    """Weight proportional to the Euclidean link length, plus a constant offset.

    A simple physical model: propagation delay and transmission energy both grow with
    distance.  ``weight = offset + scale * |uv|``.  Used by the energy/delay extension
    examples; not part of the paper's own evaluation.
    """

    metric: Metric
    scale: float = 0.01
    offset: float = 1.0

    position_independent = False

    def assign(
        self,
        edges: list[Edge],
        positions: Mapping[NodeId, Tuple[float, float]],
    ) -> Dict[Edge, float]:
        weights: Dict[Edge, float] = {}
        for u, v in edges:
            (x1, y1), (x2, y2) = positions[u], positions[v]
            distance = math.hypot(x1 - x2, y1 - y2)
            value = self.metric.validate_link_value(self.offset + self.scale * distance)
            weights[canonical_edge(u, v)] = value
        return weights


@dataclass
class ExplicitWeightAssigner(WeightAssigner):
    """Use a caller-provided weight table (the paper's worked-example figures)."""

    metric: Metric
    weights: Mapping[Edge, float] = None  # type: ignore[assignment]

    def assign(
        self,
        edges: list[Edge],
        positions: Mapping[NodeId, Tuple[float, float]],
    ) -> Dict[Edge, float]:
        if self.weights is None:
            raise ValueError("ExplicitWeightAssigner requires a weight table")
        table = {canonical_edge(*edge): value for edge, value in self.weights.items()}
        missing = [edge for edge in map(lambda e: canonical_edge(*e), edges) if edge not in table]
        if missing:
            raise ValueError(f"no explicit weight provided for edges: {sorted(missing)}")
        return {
            canonical_edge(*edge): self.metric.validate_link_value(table[canonical_edge(*edge)])
            for edge in edges
        }
