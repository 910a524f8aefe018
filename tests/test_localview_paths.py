"""Tests for the best-path solver, the first-hop sets and the RNG reduction."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.localview import (
    CompactGraph,
    LocalView,
    all_first_hops,
    best_value_between,
    best_values_from,
    dominated_links,
    enumerate_best_paths,
    first_hops_to,
    path_value,
    qos_rng_reduce,
)
from repro.localview import paths as paths_module
from repro.localview.paths import (
    _all_first_hops_bottleneck_forest,
    _all_first_hops_owner_dijkstra,
)
from repro.metrics import BandwidthMetric, DelayMetric, HopCountMetric, LexicographicMetric
from repro.papergraphs import FIGURE2_OWNER, figure2_network
from repro.topology import Network
from tests.nx_oracles import nx_graph


def _figure2_view():
    return LocalView.from_network(figure2_network(), FIGURE2_OWNER)


class OwnCombineBandwidth(BandwidthMetric):
    """Bandwidth with its own ``combine`` (the same bottleneck rule, written out), so it
    is a concave metric outside the stock family."""

    def combine(self, path_value: float, link_value: float) -> float:
        return link_value if link_value < path_value else path_value


class TestBestValues:
    def test_delay_matches_networkx_dijkstra(self, grid_network, delay):
        links = grid_network.adjacency
        ours = best_values_from(links, 0, delay)
        reference = nx.single_source_dijkstra_path_length(nx_graph(links), 0, weight="delay")
        assert set(ours) == set(reference)
        for node, value in reference.items():
            assert ours[node] == pytest.approx(value)

    def test_bandwidth_is_widest_path(self):
        network = Network()
        network.add_link(0, 1, bandwidth=2.0)
        network.add_link(1, 3, bandwidth=9.0)
        network.add_link(0, 2, bandwidth=5.0)
        network.add_link(2, 3, bandwidth=4.0)
        values = best_values_from(network.adjacency, 0, BandwidthMetric())
        assert values[3] == 4.0  # via 2, bottleneck 4 beats via 1 (bottleneck 2)

    def test_excluded_nodes_are_not_traversed(self):
        network = Network()
        network.add_link(0, 1, delay=1.0)
        network.add_link(1, 2, delay=1.0)
        values = best_values_from(network.adjacency, 0, DelayMetric(), excluded=(1,))
        assert 2 not in values
        assert values == {0: 0.0}

    def test_source_excluded_or_missing_gives_empty(self, delay):
        links = {0: {1: {"delay": 1.0}}, 1: {0: {"delay": 1.0}}}
        assert best_values_from(links, 0, delay, excluded=(0,)) == {}
        assert best_values_from(links, 9, delay) == {}

    def test_best_value_between_unreachable_is_worst(self, delay, bandwidth):
        links = {0: {}, 1: {}}
        assert best_value_between(links, 0, 1, delay) == math.inf
        assert best_value_between(links, 0, 1, bandwidth) == 0.0

    def test_path_value_evaluates_true_weights(self, line_network, bandwidth, delay):
        assert path_value(line_network.adjacency, [0, 1, 2, 3], bandwidth) == 3.0
        assert path_value(line_network.adjacency, [0, 1, 2, 3], delay) == 4.0

    def test_path_value_rejects_broken_paths(self, line_network, delay):
        with pytest.raises(KeyError):
            path_value(line_network.adjacency, [0, 2], delay)
        with pytest.raises(KeyError):
            path_value(line_network.adjacency, [7, 0], delay)
        with pytest.raises(ValueError):
            path_value(line_network.adjacency, [], delay)


class TestFirstHops:
    def test_paper_example_fp_u_v3(self, bandwidth):
        """The paper: fP_BW(u, v3) = {v1, v2} with value 4."""
        result = first_hops_to(_figure2_view(), 3, bandwidth)
        assert result.best_value == 4.0
        assert result.first_hops == frozenset({1, 2})
        assert not result.direct_link_is_optimal()

    def test_paper_example_v4_reached_through_three_hop_path(self, bandwidth):
        """The paper: u should reach v4 through u-v1-v5-v4 (bandwidth 5), not directly (3)."""
        result = first_hops_to(_figure2_view(), 4, bandwidth)
        assert result.best_value == 5.0
        assert result.first_hops == frozenset({1})

    def test_paper_example_direct_link_optimal_for_v7(self, bandwidth):
        result = first_hops_to(_figure2_view(), 7, bandwidth)
        assert result.direct_link_is_optimal()

    def test_paper_example_invisible_link_limits_v9(self, bandwidth):
        """u cannot see (v8, v9), so its best path to v9 has bandwidth 3 (via v7)."""
        result = first_hops_to(_figure2_view(), 9, bandwidth)
        assert result.best_value == 3.0
        assert result.first_hops == frozenset({7})

    def test_owner_as_target_rejected(self, bandwidth):
        with pytest.raises(ValueError):
            first_hops_to(_figure2_view(), FIGURE2_OWNER, bandwidth)

    def test_unknown_target_is_unreachable(self, bandwidth):
        result = first_hops_to(_figure2_view(), 999, bandwidth)
        assert not result.reachable
        assert result.best_value == bandwidth.worst

    def test_all_first_hops_covers_every_known_target(self, bandwidth):
        view = _figure2_view()
        results = all_first_hops(view, bandwidth)
        assert set(results) == set(view.known_targets())
        assert all(results[target].reachable for target in view.known_targets())

    def test_all_first_hops_fast_methods_match_reference(self, grid_network, bandwidth, delay):
        for node in (0, 5, 10, 15):
            view = LocalView.from_network(grid_network, node)
            for metric, fast in (
                (bandwidth, _all_first_hops_bottleneck_forest),
                (delay, _all_first_hops_owner_dijkstra),
            ):
                reference = {
                    target: first_hops_to(view, target, metric)
                    for target in view.known_targets()
                }
                assert fast(view, metric) == reference
                assert all_first_hops(view, metric) == reference

    @pytest.mark.parametrize(
        "metric,solver",
        [
            (DelayMetric(), "owner-dijkstra"),
            (LexicographicMetric([DelayMetric(), HopCountMetric()]), "owner-dijkstra"),
            (BandwidthMetric(), "bottleneck-forest"),
            (OwnCombineBandwidth(), "per-target"),
            (LexicographicMetric([DelayMetric(), BandwidthMetric()]), "per-target"),
        ],
        ids=["delay", "additive-composite", "bandwidth", "concave-own-combine", "mixed-composite"],
    )
    def test_all_first_hops_runs_the_one_solver_its_metric_allows(
        self, grid_network, monkeypatch, metric, solver
    ):
        """Every solver gives the same answers, so only the calls show the dispatch: one
        single pass for prefix-optimal additive metrics and for the stock concave family,
        the per-target definition for anything else."""
        calls = []
        for name, label in (
            ("_all_first_hops_owner_dijkstra", "owner-dijkstra"),
            ("_all_first_hops_bottleneck_forest", "bottleneck-forest"),
            ("first_hops_to", "per-target"),
        ):
            original = getattr(paths_module, name)

            def counted(*args, _original=original, _label=label):
                calls.append(_label)
                return _original(*args)

            monkeypatch.setattr(paths_module, name, counted)
        for u, v in grid_network.links():
            grid_network.set_link_weight(u, v, "hops", 1.0)
        view = LocalView.from_network(grid_network, 5)
        results = all_first_hops(view, metric)
        monkeypatch.undo()
        targets = view.known_targets()
        assert calls == [solver] * (len(targets) if solver == "per-target" else 1)
        assert results == {target: first_hops_to(view, target, metric) for target in targets}

    def test_first_hops_are_always_one_hop_neighbors(self, random_network_factory, bandwidth):
        network = random_network_factory(25, seed=3)
        for node in list(network.nodes())[:10]:
            view = LocalView.from_network(network, node)
            for result in all_first_hops(view, bandwidth).values():
                assert result.first_hops <= view.one_hop


class TestEnumerateBestPaths:
    def test_enumerates_all_optimal_paths(self, bandwidth):
        view = _figure2_view()
        paths = enumerate_best_paths(view.links, FIGURE2_OWNER, 3, bandwidth)
        assert [FIGURE2_OWNER, 1, 3] in paths
        assert [FIGURE2_OWNER, 2, 3] in paths
        assert all(path[0] == FIGURE2_OWNER and path[-1] == 3 for path in paths)

    def test_every_enumerated_path_has_the_optimal_value(self, grid_network, delay):
        links = grid_network.adjacency
        best = best_value_between(links, 0, 15, delay)
        for path in enumerate_best_paths(links, 0, 15, delay):
            assert path_value(links, path, delay) == pytest.approx(best)

    def test_unreachable_gives_empty_list(self, delay):
        assert enumerate_best_paths({0: {}, 1: {}}, 0, 1, delay) == []

    def test_max_paths_guard(self, bandwidth):
        network = Network()
        # A ladder of parallel equal-bandwidth two-hop segments: optimal paths multiply.
        # Level k's main node is 2k, its alternative 2k + 1.
        for level in range(6):
            network.add_link(2 * level, 2 * level + 2, bandwidth=5.0)
        # add parallel alternatives
        for level in range(6):
            network.add_link(2 * level, 2 * level + 1, bandwidth=5.0)
            network.add_link(2 * level + 1, 2 * level + 2, bandwidth=5.0)
        with pytest.raises(RuntimeError):
            enumerate_best_paths(network.adjacency, 0, 12, bandwidth, max_paths=3)


class TestRngReduction:
    def test_dominated_link_removed_for_bandwidth(self, bandwidth):
        network = Network()
        network.add_link(1, 2, bandwidth=1.0)
        network.add_link(1, 3, bandwidth=5.0)
        network.add_link(3, 2, bandwidth=4.0)
        reduced = qos_rng_reduce(network.adjacency, bandwidth)
        assert 2 not in reduced[1] and 1 not in reduced[2]
        assert 3 in reduced[1] and 2 in reduced[3]
        assert dominated_links(network.adjacency, bandwidth) == {(1, 2)}

    def test_dominated_link_removed_for_delay(self, delay):
        network = Network()
        network.add_link(1, 2, delay=10.0)
        network.add_link(1, 3, delay=2.0)
        network.add_link(3, 2, delay=3.0)
        reduced = qos_rng_reduce(network.adjacency, delay)
        assert 2 not in reduced[1]

    def test_link_kept_when_no_witness_dominates_both_legs(self, bandwidth):
        network = Network()
        network.add_link(1, 2, bandwidth=4.0)
        network.add_link(1, 3, bandwidth=5.0)
        network.add_link(3, 2, bandwidth=3.0)  # second leg is worse than the direct link
        reduced = qos_rng_reduce(network.adjacency, bandwidth)
        assert 2 in reduced[1]

    def test_reduction_preserves_widest_path_values(self, random_network_factory, bandwidth):
        """A removed link is always the strict bottleneck of a triangle, so the maximum
        spanning tree survives the reduction and every pair's widest-path value is intact."""
        network = random_network_factory(25, seed=8)
        reduced = qos_rng_reduce(network.adjacency, bandwidth)
        source = network.nodes()[0]
        original = best_values_from(network.adjacency, source, bandwidth)
        filtered = best_values_from(CompactGraph.from_links(reduced, bandwidth), source, bandwidth)
        assert set(original) == set(filtered)
        for node, value in original.items():
            assert filtered[node] == pytest.approx(value)

    def test_input_graph_is_not_modified(self, bandwidth):
        network = Network()
        network.add_link(1, 2, bandwidth=1.0)
        network.add_link(1, 3, bandwidth=5.0)
        network.add_link(3, 2, bandwidth=4.0)
        qos_rng_reduce(network.adjacency, bandwidth)
        assert network.has_link(1, 2)
