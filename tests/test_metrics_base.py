"""Tests of the additive/concave metric protocol and the concrete single-criterion metrics."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.metrics import (
    BandwidthMetric,
    DelayMetric,
    HopCountMetric,
    JitterMetric,
    MetricKind,
    PacketLossMetric,
    get_metric,
    METRICS,
)


class TestAdditiveSemantics:
    def test_kind_and_identity(self, delay):
        assert delay.kind is MetricKind.ADDITIVE
        assert delay.identity == 0.0
        assert delay.worst == math.inf

    def test_combine_adds(self, delay):
        assert delay.combine(3.0, 2.5) == 5.5

    def test_path_value_sums(self, delay):
        assert delay.path_value([1.0, 2.0, 3.0]) == 6.0

    def test_path_value_of_empty_path_is_identity(self, delay):
        assert delay.path_value([]) == delay.identity

    def test_smaller_is_better(self, delay):
        assert delay.is_better(1.0, 2.0)
        assert not delay.is_better(2.0, 1.0)
        assert not delay.is_better(2.0, 2.0)

    def test_optimum_picks_minimum(self, delay):
        assert delay.optimum([4.0, 2.0, 7.0]) == 2.0

    def test_optimum_of_empty_is_worst(self, delay):
        assert delay.optimum([]) == delay.worst

    def test_is_usable(self, delay):
        assert delay.is_usable(5.0)
        assert not delay.is_usable(math.inf)

    def test_sort_key_orders_better_first(self, delay):
        assert delay.sort_key(1.0) < delay.sort_key(2.0)

    def test_negative_link_values_rejected(self, delay):
        with pytest.raises(ValueError):
            delay.validate_link_value(-1.0)


class TestConcaveSemantics:
    def test_kind_and_identity(self, bandwidth):
        assert bandwidth.kind is MetricKind.CONCAVE
        assert bandwidth.identity == math.inf
        assert bandwidth.worst == 0.0

    def test_combine_takes_minimum(self, bandwidth):
        assert bandwidth.combine(5.0, 3.0) == 3.0
        assert bandwidth.combine(2.0, 9.0) == 2.0

    def test_path_value_is_bottleneck(self, bandwidth):
        assert bandwidth.path_value([5.0, 2.0, 8.0]) == 2.0

    def test_larger_is_better(self, bandwidth):
        assert bandwidth.is_better(5.0, 3.0)
        assert not bandwidth.is_better(3.0, 5.0)
        assert not bandwidth.is_better(4.0, 4.0)

    def test_optimum_picks_maximum(self, bandwidth):
        assert bandwidth.optimum([4.0, 9.0, 1.0]) == 9.0

    def test_is_usable(self, bandwidth):
        assert bandwidth.is_usable(0.5)
        assert not bandwidth.is_usable(0.0)

    def test_sort_key_orders_better_first(self, bandwidth):
        assert bandwidth.sort_key(9.0) < bandwidth.sort_key(2.0)

    def test_non_positive_link_values_rejected(self, bandwidth):
        with pytest.raises(ValueError):
            bandwidth.validate_link_value(0.0)


class TestToleranceAndComparisons:
    def test_values_equal_tolerates_floating_point_noise(self, delay):
        assert delay.values_equal(0.1 + 0.2, 0.3)

    def test_values_equal_with_infinities(self, delay):
        assert delay.values_equal(math.inf, math.inf)
        assert not delay.values_equal(math.inf, 3.0)

    def test_better_of(self, bandwidth, delay):
        assert bandwidth.better_of(3.0, 5.0) == 5.0
        assert delay.better_of(3.0, 5.0) == 3.0

    @given(st.floats(min_value=0.1, max_value=1e6), st.floats(min_value=0.1, max_value=1e6))
    def test_is_better_is_a_strict_order(self, a, b):
        for metric in (BandwidthMetric(), DelayMetric()):
            assert not (metric.is_better(a, b) and metric.is_better(b, a))
            if metric.values_equal(a, b):
                assert not metric.is_better(a, b)


class TestSpecificMetrics:
    def test_hop_count_normalizes_every_link_to_one(self):
        metric = HopCountMetric()
        assert metric.validate_link_value(7.3) == 1.0
        assert metric.path_value([1.0, 1.0, 1.0]) == 3.0

    def test_packet_loss_probability_round_trip(self):
        metric = PacketLossMetric()
        links = [0.1, 0.2, 0.05]
        path_value = metric.path_value([metric.from_probability(p) for p in links])
        end_to_end = metric.to_probability(path_value)
        expected = 1.0 - (0.9 * 0.8 * 0.95)
        assert end_to_end == pytest.approx(expected)

    def test_packet_loss_rejects_invalid_probabilities(self):
        with pytest.raises(ValueError):
            PacketLossMetric.from_probability(1.0)
        with pytest.raises(ValueError):
            PacketLossMetric.to_probability(-0.1)

    def test_jitter_is_additive(self):
        assert JitterMetric().path_value([0.5, 0.25]) == 0.75

    def test_link_value_from_attributes_uses_metric_name(self, bandwidth, delay):
        attributes = {"bandwidth": 4.0, "delay": 2.0}
        assert bandwidth.link_value_from_attributes(attributes) == 4.0
        assert delay.link_value_from_attributes(attributes) == 2.0

    def test_link_value_from_attributes_missing_key(self, bandwidth):
        with pytest.raises(KeyError):
            bandwidth.link_value_from_attributes({"delay": 2.0})


class TestRegistry:
    def test_registry_contains_the_paper_metrics(self):
        assert "bandwidth" in METRICS
        assert "delay" in METRICS

    def test_get_metric_returns_shared_instances(self):
        assert get_metric("bandwidth") is METRICS["bandwidth"]

    def test_get_metric_unknown_name(self):
        with pytest.raises(KeyError):
            get_metric("latency")
