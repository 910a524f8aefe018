"""Tests for advertised-topology construction, routing over it, and the centralized optimum."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.core import FnbpSelector
from repro.baselines import OlsrMprSelector, QolsrMpr2Selector
from repro.metrics import BandwidthMetric, DelayMetric
from repro.routing import (
    AdvertisedTopology,
    HopByHopRouter,
    advertise,
    best_path,
    build_advertised_topology,
    optimal_route,
)
from repro.topology import Network


class TestOptimalRoute:
    def test_delay_route_matches_networkx(self, grid_network, delay):
        ours = optimal_route(grid_network, 0, 15, delay)
        reference_length = nx.dijkstra_path_length(grid_network.graph, 0, 15, weight="delay")
        assert ours.value == pytest.approx(reference_length)
        assert ours.path[0] == 0 and ours.path[-1] == 15
        # The returned path's true cost equals the reported value.
        cost = sum(
            grid_network.link_value(u, v, delay) for u, v in zip(ours.path, ours.path[1:])
        )
        assert cost == pytest.approx(ours.value)

    def test_widest_route_value_and_path_consistency(self, grid_network, bandwidth):
        ours = optimal_route(grid_network, 0, 15, bandwidth)
        bottleneck = min(
            grid_network.link_value(u, v, bandwidth) for u, v in zip(ours.path, ours.path[1:])
        )
        assert bottleneck == pytest.approx(ours.value)
        # No single link into/out of the terminals can beat the reported bottleneck for every path:
        # verify optimality against brute force on this small graph.
        best = max(
            min(grid_network.link_value(u, v, bandwidth) for u, v in zip(path, path[1:]))
            for path in nx.all_simple_paths(grid_network.graph, 0, 15, cutoff=8)
        )
        assert ours.value == pytest.approx(best)

    def test_source_equals_destination(self, grid_network, delay):
        route = optimal_route(grid_network, 3, 3, delay)
        assert route.path == (3,)
        assert route.value == delay.identity
        assert route.hop_count == 0

    def test_unreachable_destination(self, delay):
        network = Network.from_links({(0, 1): {"delay": 1.0}})
        network.add_node(9)
        route = optimal_route(network, 0, 9, delay)
        assert not route.reachable
        assert route.value == delay.worst

    def test_missing_node(self, grid_network, delay):
        route = best_path(grid_network.graph, 0, 999, delay)
        assert not route.reachable


class TestAdvertisedTopology:
    def test_links_come_from_selections(self, diamond_network, bandwidth):
        selections = {0: frozenset({1}), 3: frozenset({2})}
        advertised = build_advertised_topology(diamond_network, selections)
        assert advertised.graph.has_edge(0, 1)
        assert advertised.graph.has_edge(3, 2)
        assert not advertised.graph.has_edge(0, 3)
        assert advertised.advertised_link_count() == 2
        assert advertised.average_set_size() == 1.0

    def test_advertised_links_carry_true_weights(self, diamond_network, bandwidth):
        advertised = build_advertised_topology(diamond_network, {0: frozenset({1})})
        assert advertised.graph.edges[0, 1]["bandwidth"] == 4.0

    def test_advertising_a_non_link_is_rejected(self, diamond_network):
        with pytest.raises(ValueError):
            build_advertised_topology(diamond_network, {1: frozenset({2})})

    def test_select_all_and_advertise_agree(self, grid_network, bandwidth):
        selector = FnbpSelector()
        by_parts = build_advertised_topology(grid_network, selector.select_all(grid_network, bandwidth))
        direct = advertise(grid_network, selector, bandwidth)
        assert set(by_parts.graph.edges) == set(direct.graph.edges)
        assert by_parts.ans_sets == direct.ans_sets

    def test_every_node_present_even_without_advertisements(self, diamond_network):
        advertised = build_advertised_topology(diamond_network, {})
        assert set(advertised.graph.nodes) == set(diamond_network.nodes())
        assert advertised.average_set_size() == 0.0


class TestRouting:
    @pytest.fixture
    def routed(self, grid_network, bandwidth):
        advertised = advertise(grid_network, FnbpSelector(), bandwidth)
        return HopByHopRouter(grid_network, advertised, bandwidth)

    def test_link_state_route_delivers_and_reports_true_value(self, routed, grid_network, bandwidth):
        outcome = routed.link_state_route(0, 15)
        assert outcome.delivered
        assert outcome.path[0] == 0 and outcome.path[-1] == 15
        bottleneck = min(
            grid_network.link_value(u, v, bandwidth) for u, v in zip(outcome.path, outcome.path[1:])
        )
        assert outcome.value == pytest.approx(bottleneck)

    def test_link_state_route_never_beats_the_centralized_optimum(self, routed, grid_network, bandwidth):
        for destination in (5, 10, 15):
            outcome = routed.link_state_route(0, destination)
            optimum = optimal_route(grid_network, 0, destination, bandwidth)
            assert bandwidth.is_better_or_equal(optimum.value, outcome.value)

    def test_route_to_self(self, routed):
        outcome = routed.link_state_route(4, 4)
        assert outcome.delivered and outcome.path == (4,)

    def test_route_with_unknown_nodes_raises(self, routed):
        with pytest.raises(KeyError):
            routed.link_state_route(0, 999)
        with pytest.raises(KeyError):
            routed.route(999, 0)

    def test_no_route_when_destination_is_isolated_from_advertisements(self, bandwidth):
        # Destination 9 hangs off node 3 but nobody advertises it and the source is far away.
        network = Network.from_links(
            {
                (0, 1): {"bandwidth": 5.0},
                (1, 2): {"bandwidth": 5.0},
                (2, 3): {"bandwidth": 5.0},
                (3, 9): {"bandwidth": 5.0},
            }
        )
        advertised = build_advertised_topology(network, {0: frozenset({1}), 1: frozenset({2})})
        router = HopByHopRouter(network, advertised, bandwidth)
        outcome = router.link_state_route(0, 9)
        assert not outcome.delivered
        assert outcome.failure == "no-route"

    def test_hop_by_hop_route_on_delay_matches_link_state(self, grid_network, delay):
        advertised = advertise(grid_network, FnbpSelector(), delay)
        router = HopByHopRouter(grid_network, advertised, delay)
        hop_by_hop = router.route(0, 15)
        link_state = router.link_state_route(0, 15)
        assert hop_by_hop.delivered
        assert hop_by_hop.value == pytest.approx(link_state.value)

    def test_routing_table_lists_only_reachable_destinations(self, grid_network, delay):
        advertised = advertise(grid_network, FnbpSelector(), delay)
        router = HopByHopRouter(grid_network, advertised, delay)
        table = router.routing_table(0)
        assert set(table) == set(grid_network.nodes()) - {0}
        assert all(hop in grid_network.neighbors(0) for hop in table.values())

    def test_next_hop_for_destination_outside_advertised_graph(self, bandwidth):
        network = Network.from_links({(0, 1): {"bandwidth": 2.0}})
        advertised = AdvertisedTopology(graph=nx.Graph())
        router = HopByHopRouter(network, advertised, bandwidth)
        assert router.next_hop(0, 1) == 1

    def test_fnbp_advertised_topology_preserves_the_figure1_widest_path(self, bandwidth):
        """The Figure 1 phenomenon on the reconstructed topology: a two-hop-constrained
        choice (what the QOLSR heuristic considers) tops out at bandwidth 6, while routing
        over the FNBP advertisements reaches the true widest path (bandwidth 10)."""
        from repro.papergraphs import figure1_network
        from repro.papergraphs.figure1 import V1, V3, best_two_hop_bandwidth

        network = figure1_network()
        fnbp = HopByHopRouter(network, advertise(network, FnbpSelector(), bandwidth), bandwidth)
        optimum = optimal_route(network, V1, V3, bandwidth)
        assert optimum.value == 10.0
        assert best_two_hop_bandwidth(network, V1, V3) == pytest.approx(6.0)
        assert fnbp.link_state_route(V1, V3).value == pytest.approx(10.0)
