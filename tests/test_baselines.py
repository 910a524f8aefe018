"""Tests for the baseline selections: RFC 3626 MPR, QOLSR MPR-1/MPR-2, topology filtering."""

from __future__ import annotations

import pytest

from repro.baselines import (
    OlsrMprSelector,
    QolsrMpr1Selector,
    QolsrMpr2Selector,
    TopologyFilteringSelector,
)
from repro.core import FnbpSelector
from repro.localview import LocalView
from repro.metrics import BandwidthMetric, DelayMetric
from repro.olsr.mpr import coverage_map, mpr_selectors, rfc3626_mpr
from repro.topology import Network


@pytest.fixture
def star_with_fringe() -> Network:
    """Node 0 with three neighbors; only neighbor 1 reaches the fringe nodes 7 and 8."""
    return Network.from_links(
        {
            (0, 1): {"bandwidth": 2.0, "delay": 5.0},
            (0, 2): {"bandwidth": 9.0, "delay": 1.0},
            (0, 3): {"bandwidth": 5.0, "delay": 2.0},
            (1, 7): {"bandwidth": 4.0, "delay": 1.0},
            (1, 8): {"bandwidth": 4.0, "delay": 1.0},
            (2, 7): {"bandwidth": 6.0, "delay": 3.0},
        }
    )


@pytest.fixture
def qos_choice_network() -> Network:
    """Two relays (1 strong, 2 weak) both covering the same two-hop fringe {7, 8}."""
    return Network.from_links(
        {
            (0, 1): {"bandwidth": 9.0, "delay": 1.0},
            (0, 2): {"bandwidth": 2.0, "delay": 6.0},
            (1, 7): {"bandwidth": 5.0, "delay": 2.0},
            (1, 8): {"bandwidth": 5.0, "delay": 2.0},
            (2, 7): {"bandwidth": 5.0, "delay": 2.0},
            (2, 8): {"bandwidth": 5.0, "delay": 2.0},
        }
    )


class TestRfc3626Mpr:
    def test_sole_providers_are_always_selected(self, star_with_fringe):
        view = LocalView.from_network(star_with_fringe, 0)
        mpr = rfc3626_mpr(view)
        assert 1 in mpr  # only cover of node 8
        assert 3 not in mpr  # covers nothing

    def test_greedy_covers_all_two_hop_neighbors(self, random_network_factory):
        network = random_network_factory(30, seed=5)
        for owner in list(network.nodes())[:10]:
            view = LocalView.from_network(network, owner)
            mpr = rfc3626_mpr(view)
            covered = set()
            for relay in mpr:
                covered |= view.neighbors_of(relay) & view.two_hop
            assert covered == view.two_hop
            assert mpr <= view.one_hop

    def test_empty_two_hop_neighborhood_selects_nothing(self):
        network = Network.from_links({(0, 1): {"bandwidth": 1.0}, (0, 2): {"bandwidth": 1.0}})
        view = LocalView.from_network(network, 0)
        assert rfc3626_mpr(view) == frozenset()

    def test_coverage_map(self, star_with_fringe):
        view = LocalView.from_network(star_with_fringe, 0)
        cover = coverage_map(view)
        assert cover[1] == {7, 8}
        assert cover[2] == {7}
        assert cover[3] == set()

    def test_mpr_selectors_inversion(self):
        selectors = mpr_selectors({1: frozenset({2, 3}), 4: frozenset({2})})
        assert selectors[2] == frozenset({1, 4})
        assert selectors[3] == frozenset({1})

    def test_olsr_selector_wrapper_ignores_metric(self, star_with_fringe, bandwidth, delay):
        view = LocalView.from_network(star_with_fringe, 0)
        by_bandwidth = OlsrMprSelector().select(view, bandwidth)
        by_delay = OlsrMprSelector().select(view, delay)
        assert by_bandwidth.selected == by_delay.selected == rfc3626_mpr(view)


class TestQolsrHeuristics:
    def test_phase_one_is_shared_with_rfc3626(self, star_with_fringe, bandwidth):
        view = LocalView.from_network(star_with_fringe, 0)
        for selector in (QolsrMpr1Selector(), QolsrMpr2Selector()):
            result = selector.select(view, bandwidth)
            assert 1 in result.selected  # sole provider of 8

    def test_mpr2_prefers_the_best_direct_link(self, qos_choice_network, bandwidth):
        view = LocalView.from_network(qos_choice_network, 0)
        result = QolsrMpr2Selector().select(view, bandwidth)
        assert result.selected == frozenset({1})

    def test_mpr2_with_delay_prefers_the_smallest_delay(self, qos_choice_network, delay):
        view = LocalView.from_network(qos_choice_network, 0)
        result = QolsrMpr2Selector().select(view, delay)
        assert result.selected == frozenset({1})

    def test_mpr1_breaks_coverage_ties_by_qos(self, qos_choice_network, bandwidth):
        view = LocalView.from_network(qos_choice_network, 0)
        result = QolsrMpr1Selector().select(view, bandwidth)
        assert result.selected == frozenset({1})

    def test_mpr1_prefers_coverage_over_qos(self, bandwidth):
        # Relay 1 covers both fringe nodes with a weak link; relays 2 and 3 each cover one
        # fringe node, so nobody is a sole provider.  MPR-1 (coverage first) picks just 1;
        # MPR-2 (QoS first) starts with the strong link to 2 and then still needs 1 for 8.
        network = Network.from_links(
            {
                (0, 1): {"bandwidth": 2.0},
                (0, 2): {"bandwidth": 9.0},
                (0, 3): {"bandwidth": 1.0},
                (1, 7): {"bandwidth": 5.0},
                (1, 8): {"bandwidth": 5.0},
                (2, 7): {"bandwidth": 5.0},
                (3, 8): {"bandwidth": 5.0},
            }
        )
        view = LocalView.from_network(network, 0)
        mpr1 = QolsrMpr1Selector().select(view, bandwidth)
        mpr2 = QolsrMpr2Selector().select(view, bandwidth)
        assert mpr1.selected == frozenset({1})
        assert mpr2.selected == frozenset({1, 2})

    def test_qolsr_covers_every_two_hop_neighbor(self, random_network_factory, bandwidth):
        network = random_network_factory(30, seed=6)
        for owner in list(network.nodes())[:10]:
            view = LocalView.from_network(network, owner)
            for selector in (QolsrMpr1Selector(), QolsrMpr2Selector()):
                result = selector.select(view, bandwidth)
                covered = set()
                for relay in result.selected:
                    covered |= view.neighbors_of(relay) & view.two_hop
                assert covered == view.two_hop


class TestTopologyFiltering:
    def test_advertises_all_best_first_hops(self, bandwidth):
        # Two equally good 2-hop detours to node 9: both relays are advertised (the set-size
        # weakness the paper points out), whereas FNBP keeps only one.
        network = Network.from_links(
            {
                (0, 1): {"bandwidth": 5.0},
                (0, 2): {"bandwidth": 5.0},
                (1, 9): {"bandwidth": 5.0},
                (2, 9): {"bandwidth": 5.0},
            }
        )
        view = LocalView.from_network(network, 0)
        filtering = TopologyFilteringSelector().select(view, bandwidth)
        fnbp = FnbpSelector().select(view, bandwidth)
        assert filtering.selected == frozenset({1, 2})
        assert len(fnbp.selected) == 1

    def test_direct_link_kept_when_optimal(self, bandwidth):
        network = Network.from_links(
            {(0, 1): {"bandwidth": 9.0}, (0, 2): {"bandwidth": 9.0}, (1, 2): {"bandwidth": 1.0}}
        )
        view = LocalView.from_network(network, 0)
        result = TopologyFilteringSelector().select(view, bandwidth)
        assert result.selected == frozenset()

    def test_two_hop_detour_used_for_a_weak_direct_link(self, diamond_network, bandwidth):
        view = LocalView.from_network(diamond_network, 0)
        result = TopologyFilteringSelector().select(view, bandwidth)
        assert 1 in result.selected

    def test_covers_every_two_hop_neighbor_with_a_two_hop_path(self, random_network_factory, delay):
        network = random_network_factory(25, seed=10)
        for owner in list(network.nodes())[:8]:
            view = LocalView.from_network(network, owner)
            result = TopologyFilteringSelector().select(view, delay)
            for target in view.two_hop:
                relays = view.common_relays(target)
                assert relays & result.selected, f"two-hop neighbor {target} left uncovered"
