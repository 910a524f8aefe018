"""QoS metrics: the additive/concave metric protocol and the concrete metrics used by the paper.

Public surface
--------------
* :class:`Metric`, :class:`MetricKind`, :class:`AdditiveMetric`, :class:`ConcaveMetric` --
  the protocol every algorithm in the library is written against.
* :class:`BandwidthMetric` / :class:`DelayMetric` -- the paper's two instantiations
  (Algorithms 1 and 2).
* :class:`JitterMetric`, :class:`PacketLossMetric`, :class:`HopCountMetric`,
  :class:`EnergyCostMetric`, :class:`ResidualBufferMetric` -- the other metrics the paper
  names as compatible.
* :class:`LexicographicMetric` -- the multi-criterion extension (the paper's future work).
* Weight assigners (uniform random as in the evaluation, constant, distance-based, explicit).
* :func:`preferred_neighbor` -- the ``≺_BW`` / ``≺_D`` preference operator.
"""

from repro.metrics.assignment import (
    ConstantWeightAssigner,
    DistanceProportionalAssigner,
    ExplicitWeightAssigner,
    UniformWeightAssigner,
    WeightAssigner,
    canonical_edge,
)
from repro.metrics.bandwidth import BandwidthMetric, ResidualBufferMetric
from repro.metrics.base import AdditiveMetric, ConcaveMetric, Metric, MetricKind
from repro.metrics.composite import LexicographicMetric
from repro.metrics.delay import (
    DelayMetric,
    EnergyCostMetric,
    HopCountMetric,
    JitterMetric,
    PacketLossMetric,
)
from repro.metrics.ordering import preference_key, preferred_neighbor
from repro.registry import METRICS as _METRIC_REGISTRY

#: The ready-made single-criterion metric instances, shared library-wide.  They register
#: themselves in the unified :data:`repro.registry.METRICS` registry below; this mapping is
#: kept as a convenience snapshot of the built-ins (registry lookups, including any metrics
#: registered later by plugins, go through :func:`get_metric`).
METRICS = {
    metric.name: metric
    for metric in (
        BandwidthMetric(),
        DelayMetric(),
        JitterMetric(),
        PacketLossMetric(),
        HopCountMetric(),
        EnergyCostMetric(),
        ResidualBufferMetric(),
    )
}

for _metric in METRICS.values():
    _METRIC_REGISTRY.register(
        _metric.name,
        (lambda metric: lambda: metric)(_metric),
        description=f"{_metric.kind.name.lower()} metric ({type(_metric).__name__})",
    )
del _metric


def get_metric(name: str) -> Metric:
    """Return the shared instance of the metric registered under ``name``."""
    return _METRIC_REGISTRY.create(name)


__all__ = [
    "Metric",
    "MetricKind",
    "AdditiveMetric",
    "ConcaveMetric",
    "BandwidthMetric",
    "ResidualBufferMetric",
    "DelayMetric",
    "JitterMetric",
    "PacketLossMetric",
    "HopCountMetric",
    "EnergyCostMetric",
    "LexicographicMetric",
    "WeightAssigner",
    "UniformWeightAssigner",
    "ConstantWeightAssigner",
    "DistanceProportionalAssigner",
    "ExplicitWeightAssigner",
    "canonical_edge",
    "preferred_neighbor",
    "preference_key",
    "METRICS",
    "get_metric",
]
