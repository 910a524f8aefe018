"""Micro-benchmarks: per-node selection cost of FNBP and each baseline on one dense view.

These are the inner loops of every density sweep, so their cost is what determines whether
the paper profile (100 runs, degree up to 35, about 1100 nodes) is feasible.
"""

from __future__ import annotations

import pytest

from repro.core import make_selector
from repro.localview import LocalView, first_hops_to
from repro.localview.paths import (
    _all_first_hops_bottleneck_forest,
    _all_first_hops_owner_dijkstra,
)
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.topology import FieldSpec, FixedCountNetworkGenerator


def _dense_view():
    metrics = (BandwidthMetric(), DelayMetric())
    assigners = tuple(
        UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=31 + i)
        for i, metric in enumerate(metrics)
    )
    network = FixedCountNetworkGenerator(
        field=FieldSpec(width=420.0, height=420.0, radius=100.0),
        node_count=220,
        seed=13,
        weight_assigners=assigners,
        restrict_to_largest_component=True,
    ).generate()
    owner = network.nodes()[len(network) // 2]
    return LocalView.from_network(network, owner)


VIEW = _dense_view()


@pytest.mark.parametrize(
    "selector_name", ["fnbp", "qolsr-mpr2", "topology-filtering", "olsr-mpr"]
)
def test_selection_speed_bandwidth(benchmark, selector_name):
    selector = make_selector(selector_name)
    metric = BandwidthMetric()
    result = benchmark(lambda: selector.select(VIEW, metric))
    assert result.selected <= VIEW.one_hop


@pytest.mark.parametrize("selector_name", ["fnbp", "qolsr-mpr2", "topology-filtering"])
def test_selection_speed_delay(benchmark, selector_name):
    selector = make_selector(selector_name)
    metric = DelayMetric()
    result = benchmark(lambda: selector.select(VIEW, metric))
    assert result.selected <= VIEW.one_hop


def _per_target(view, metric):
    """The per-target reference: :func:`first_hops_to` once per known target."""
    return {target: first_hops_to(view, target, metric) for target in view.known_targets()}


@pytest.mark.parametrize(
    "metric,solve",
    [
        (BandwidthMetric(), _all_first_hops_bottleneck_forest),
        (BandwidthMetric(), _per_target),
        (DelayMetric(), _all_first_hops_owner_dijkstra),
        (DelayMetric(), _per_target),
    ],
    ids=["bw-forest", "bw-per-target", "delay-dijkstra", "delay-per-target"],
)
def test_first_hop_computation_speed(benchmark, metric, solve):
    """The all-targets first-hop computation: fast single-pass solvers vs the reference."""
    results = benchmark(lambda: solve(VIEW, metric))
    assert set(results) == set(VIEW.known_targets())
