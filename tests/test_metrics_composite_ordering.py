"""Tests for the lexicographic multi-criterion metric and the ``≺`` preference operator."""

from __future__ import annotations

import math

import pytest

from repro.metrics import (
    BandwidthMetric,
    DelayMetric,
    EnergyCostMetric,
    LexicographicMetric,
    preference_key,
    preferred_neighbor,
)


@pytest.fixture
def bw_then_energy():
    return LexicographicMetric([BandwidthMetric(), EnergyCostMetric()])


class TestLexicographicMetric:
    def test_requires_at_least_one_criterion(self):
        with pytest.raises(ValueError):
            LexicographicMetric([])

    def test_default_name_mentions_components(self, bw_then_energy):
        assert bw_then_energy.name == "lex(bandwidth,energy_cost)"

    def test_identity_and_worst_are_componentwise(self, bw_then_energy):
        assert bw_then_energy.identity == (math.inf, 0.0)
        assert bw_then_energy.worst == (0.0, math.inf)

    def test_combine_is_componentwise(self, bw_then_energy):
        assert bw_then_energy.combine((5.0, 2.0), (3.0, 4.0)) == (3.0, 6.0)

    def test_primary_criterion_dominates(self, bw_then_energy):
        assert bw_then_energy.is_better((5.0, 100.0), (4.0, 1.0))

    def test_secondary_breaks_primary_ties(self, bw_then_energy):
        assert bw_then_energy.is_better((5.0, 1.0), (5.0, 3.0))
        assert not bw_then_energy.is_better((5.0, 3.0), (5.0, 1.0))

    def test_values_equal_requires_all_components(self, bw_then_energy):
        assert bw_then_energy.values_equal((5.0, 2.0), (5.0, 2.0))
        assert not bw_then_energy.values_equal((5.0, 2.0), (5.0, 3.0))

    def test_path_value_over_links(self, bw_then_energy):
        value = bw_then_energy.path_value([(5.0, 1.0), (3.0, 2.0), (4.0, 1.0)])
        assert value == (3.0, 4.0)

    def test_usability_follows_the_primary_criterion(self, bw_then_energy):
        assert bw_then_energy.is_usable((2.0, math.inf))
        assert not bw_then_energy.is_usable((0.0, 1.0))

    def test_link_value_from_attributes_builds_tuple(self, bw_then_energy):
        value = bw_then_energy.link_value_from_attributes({"bandwidth": 4.0, "energy_cost": 2.0})
        assert value == (4.0, 2.0)

    def test_arity_mismatch_raises(self, bw_then_energy):
        with pytest.raises(TypeError):
            bw_then_energy.is_better((1.0,), (2.0, 3.0))

    def test_sort_key_orders_lexicographically(self, bw_then_energy):
        better = bw_then_energy.sort_key((5.0, 1.0))
        worse = bw_then_energy.sort_key((5.0, 2.0))
        much_worse = bw_then_energy.sort_key((4.0, 0.5))
        assert better < worse < much_worse

    def test_composite_drives_path_solver(self, bw_then_energy):
        """The composite metric plugs into the generic best-path machinery unchanged."""
        from repro.localview.paths import best_value_between
        from repro.topology import Network

        network = Network()
        network.add_link(0, 1, bandwidth=5.0, energy_cost=5.0)
        network.add_link(1, 3, bandwidth=5.0, energy_cost=5.0)
        network.add_link(0, 2, bandwidth=5.0, energy_cost=1.0)
        network.add_link(2, 3, bandwidth=5.0, energy_cost=1.0)
        value = best_value_between(network.adjacency, 0, 3, bw_then_energy)
        assert value == (5.0, 2.0)


class TestPreferenceOperator:
    def test_preferred_neighbor_picks_best_link(self):
        metric = BandwidthMetric()
        links = {1: 3.0, 2: 7.0, 3: 5.0}
        assert preferred_neighbor(links, metric, links.__getitem__) == 2

    def test_preferred_neighbor_breaks_ties_by_smaller_id(self):
        metric = BandwidthMetric()
        links = {4: 5.0, 2: 5.0, 9: 5.0}
        assert preferred_neighbor(links, metric, links.__getitem__) == 2

    def test_preferred_neighbor_for_delay_prefers_smaller_values(self):
        metric = DelayMetric()
        links = {1: 3.0, 2: 7.0}
        assert preferred_neighbor(links, metric, links.__getitem__) == 1

    def test_preferred_neighbor_empty_returns_none(self):
        assert preferred_neighbor([], BandwidthMetric(), lambda n: 1.0) is None

    def test_preference_key_is_sortable(self):
        metric = DelayMetric()
        assert preference_key(metric, 1.0, 5) < preference_key(metric, 2.0, 1)
        assert preference_key(metric, 2.0, 1) < preference_key(metric, 2.0, 2)
