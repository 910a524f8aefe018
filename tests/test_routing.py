"""Tests for advertised-topology construction, routing over it, and the centralized optimum."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.core import FnbpSelector
from repro.baselines import OlsrMprSelector, QolsrMpr2Selector
from repro.metrics import BandwidthMetric, DelayMetric
from repro.routing import (
    AdvertisedTopologyBuilder,
    HopByHopRouter,
    advertise,
    best_path,
    optimal_route,
)
from repro.topology import Network
from tests.nx_oracles import nx_graph


class TestOptimalRoute:
    def test_delay_route_matches_networkx(self, grid_network, delay):
        ours = optimal_route(grid_network, 0, 15, delay)
        reference_length = nx.dijkstra_path_length(
            nx_graph(grid_network.adjacency), 0, 15, weight="delay"
        )
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
            for path in nx.all_simple_paths(nx_graph(grid_network.adjacency), 0, 15, cutoff=8)
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
        route = best_path(grid_network.adjacency, 0, 999, delay)
        assert not route.reachable


class TestAdvertisedTopology:
    def test_links_come_from_selections(self, diamond_network, bandwidth):
        selections = {0: frozenset({1}), 3: frozenset({2})}
        advertised = AdvertisedTopologyBuilder(diamond_network).build(selections)
        assert advertised.neighbors == {0: {1}, 1: {0}, 3: {2}, 2: {3}}
        assert advertised.advertised_link_count() == 2
        assert advertised.average_set_size() == 1.0

    def test_advertising_a_non_link_is_rejected(self, diamond_network):
        with pytest.raises(ValueError):
            AdvertisedTopologyBuilder(diamond_network).build({1: frozenset({2})})

    def test_select_all_and_advertise_agree(self, grid_network, bandwidth):
        selector = FnbpSelector()
        by_parts = AdvertisedTopologyBuilder(grid_network).build(selector.select_all(grid_network, bandwidth))
        direct = advertise(grid_network, selector, bandwidth)
        assert by_parts.neighbors == direct.neighbors
        assert by_parts.ans_sets == direct.ans_sets

    def test_every_node_present_even_without_advertisements(self, diamond_network):
        nodes = diamond_network.nodes()
        builder = AdvertisedTopologyBuilder(diamond_network)
        advertised = builder.build({node: frozenset() for node in nodes})
        assert sorted(advertised.ans_sets) == nodes
        assert advertised.neighbors == {}  # nodes without advertised links are absent
        assert advertised.advertised_link_count() == 0
        assert advertised.average_set_size() == 0.0
        assert builder.build({}).average_set_size() == 0.0


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
            routed.link_state_route(999, 0)

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
        advertised = AdvertisedTopologyBuilder(network).build({0: frozenset({1}), 1: frozenset({2})})
        router = HopByHopRouter(network, advertised, bandwidth)
        outcome = router.link_state_route(0, 9)
        assert not outcome.delivered
        assert outcome.failure == "no-route"
        assert outcome.path == (0,) and outcome.hop_count == 0
        assert outcome.value == bandwidth.worst
        assert router.link_state_route(0, 2).failure is None  # 1-2 is a link of neighbor 1

    @pytest.mark.parametrize("metric_name", ["bandwidth", "delay"])
    def test_the_router_keeps_no_state_and_routes_on_the_current_weights(
        self, grid_network, metric_name, request
    ):
        """A route is a function of the advertised sets and the network as it is now:
        degrading a link on the route moves the next route off it, and restoring the
        weight brings the first route back, from the same router."""
        metric = request.getfixturevalue(metric_name)
        router = HopByHopRouter(grid_network, advertise(grid_network, FnbpSelector(), metric), metric)
        fields = sorted(vars(router))
        first = router.link_state_route(0, 15)
        u, v = first.path[1], first.path[2]
        weight = grid_network.link_attributes(u, v)[metric_name]
        grid_network.set_link_weight(u, v, metric_name, 0.5 if metric_name == "bandwidth" else 50.0)
        detour = router.link_state_route(0, 15)
        assert detour.delivered and (u, v) not in set(zip(detour.path, detour.path[1:]))
        values = [grid_network.link_value(a, b, metric) for a, b in zip(detour.path, detour.path[1:])]
        expected = min(values) if metric_name == "bandwidth" else sum(values)
        assert detour.value == pytest.approx(expected)
        assert metric.is_better(first.value, detour.value)
        grid_network.set_link_weight(u, v, metric_name, weight)
        assert router.link_state_route(0, 15) == first
        assert sorted(vars(router)) == fields == ["advertised", "metric", "network"]

    def test_every_hop_of_a_route_is_a_link_the_source_knows(self, grid_network, bandwidth, delay):
        """Known links: the advertised ones plus every link of a one-hop neighbor of the
        source (the source's own links among them)."""
        one_hop = grid_network.adjacency[0]
        for metric in (bandwidth, delay):
            topology = advertise(grid_network, FnbpSelector(), metric)
            advertised = topology.neighbors
            router = HopByHopRouter(grid_network, topology, metric)
            for destination in grid_network.nodes()[1:]:
                outcome = router.link_state_route(0, destination)
                assert outcome.delivered and outcome.path[-1] == destination
                for a, b in zip(outcome.path, outcome.path[1:]):
                    assert grid_network.has_link(a, b)
                    assert (
                        a in one_hop
                        or b in one_hop
                        or b in advertised.get(a, ())
                        or a in advertised.get(b, ())
                    ), (metric.name, destination, a, b)

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
