"""Tests of the flat-adjacency graph core and the parallel sweep runner.

The compact-graph solvers must agree with the original networkx implementations (kept in
``tests/nx_oracles.py``) on random weighted topologies for both
metric families, and the multiprocessing sweep path must reproduce serial results exactly.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.experiments.engine import run_experiment
from repro.experiments.presets import figure_spec
from repro.experiments.runner import resolve_workers
from repro.localview import CompactGraph, LocalView, all_first_hops, best_values_from
from repro.localview.paths import enumerate_best_paths, path_value
from repro.metrics import (
    BandwidthMetric,
    DelayMetric,
    LexicographicMetric,
    MetricKind,
)
from repro.topology import Network
from tests.nx_oracles import (
    all_first_hops_bottleneck_forest_nx,
    all_first_hops_owner_dijkstra_nx,
    best_values_from_nx,
    first_hops_to_nx,
    nx_graph,
)

METRICS = (BandwidthMetric(), DelayMetric())


def random_weighted_network(rng: random.Random) -> Network:
    """A small connected-ish random network with integer weights (ties are likely)."""
    node_count = rng.randint(3, 14)
    network = Network()
    for node in range(node_count):
        network.add_node(node, (float(node), 0.0))
    edges = {(left, left + 1) for left in range(node_count - 1)}
    for _ in range(rng.randint(0, 2 * node_count)):
        a, b = rng.randrange(node_count), rng.randrange(node_count)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    for a, b in sorted(edges):
        network.add_link(
            a, b, bandwidth=float(rng.randint(1, 6)), delay=float(rng.randint(1, 6))
        )
    return network


class TestCompactGraphStructure:
    def test_layout_matches_graph_and_preextracts_weights(self):
        network = Network.from_links(
            {(0, 1): {"bandwidth": 5.0, "delay": 2.0}, (1, 2): {"bandwidth": 3.0, "delay": 4.0}}
        )
        metric = BandwidthMetric()
        cg = CompactGraph.from_links(network.adjacency, metric)
        assert set(cg.nodes) == {0, 1, 2}
        assert all(cg.nodes[cg.index[node]] == node for node in cg.nodes)
        assert cg.edge_count() == 2
        row = dict(cg.adj[cg.index[1]])
        assert row[cg.index[0]] == 5.0 and row[cg.index[2]] == 3.0

    def test_view_caches_one_compact_graph_per_metric(self):
        network = random_weighted_network(random.Random(7))
        view = LocalView.from_network(network, 0)
        bw = BandwidthMetric()
        assert view.compact_graph(bw) is view.compact_graph(BandwidthMetric())
        assert view.compact_graph(bw) is not view.compact_graph(DelayMetric())

    def test_missing_metric_attribute_raises_key_error(self):
        network = Network.from_links({(0, 1): {"bandwidth": 5.0}})
        with pytest.raises(KeyError):
            CompactGraph.from_links(network.adjacency, DelayMetric())

    def test_same_name_metrics_with_different_extraction_do_not_share_cache(self):
        network = random_weighted_network(random.Random(13))
        view = LocalView.from_network(network, 0)
        first = LexicographicMetric([DelayMetric(), BandwidthMetric()], name="lex")
        second = LexicographicMetric([BandwidthMetric(), DelayMetric()], name="lex")
        assert view.compact_graph(first) is not view.compact_graph(second)
        row = view.compact_graph(first).adj[0]
        swapped = view.compact_graph(second).adj[0]
        assert [w for _, w in row] == [(b, a) for _, (a, b) in swapped]

    def test_unweighted_link_raises_key_error_reached_or_not(self):
        """The graph is flattened before the search, so a link without the metric's
        attribute raises whether or not the search would reach it."""
        network = Network.from_links({(0, 1): {"delay": 1.0}})
        network.add_node(2)
        network.add_node(3)
        network.add_link(2, 3)  # disconnected component, no weights at all
        delay = DelayMetric()
        for source in (0, 2):
            with pytest.raises(KeyError):
                best_values_from(network.adjacency, source, delay)


class TestCompactSolversAgreeWithNetworkxReference:
    def test_fifty_random_topologies_both_metric_families(self):
        rng = random.Random(20260730)
        for round_index in range(50):
            network = random_weighted_network(rng)
            owner = rng.randrange(len(network))
            view = LocalView.from_network(network, owner)
            for metric in METRICS:
                fast = all_first_hops(view, metric, method="auto")
                reference = {
                    target: first_hops_to_nx(view, target, metric)
                    for target in view.known_targets()
                }
                assert fast == reference, (round_index, owner, metric.name)

    def test_single_pass_methods_match_their_networkx_twins(self):
        rng = random.Random(99)
        for _ in range(10):
            network = random_weighted_network(rng)
            owner = rng.randrange(len(network))
            view = LocalView.from_network(network, owner)
            assert all_first_hops_owner_dijkstra_nx(view, DelayMetric()) == all_first_hops(
                view, DelayMetric(), method="owner-dijkstra"
            )
            assert all_first_hops_bottleneck_forest_nx(view, BandwidthMetric()) == all_first_hops(
                view, BandwidthMetric(), method="bottleneck-forest"
            )

    def test_best_values_from_matches_networkx_with_exclusions(self):
        rng = random.Random(5)
        for _ in range(20):
            network = random_weighted_network(rng)
            source = rng.randrange(len(network))
            excluded = (rng.randrange(len(network)),)
            for metric in METRICS:
                assert best_values_from(network.adjacency, source, metric, excluded) == (
                    best_values_from_nx(nx_graph(network.adjacency), source, metric, excluded)
                )

    def test_degenerate_unvalidated_weights_keep_legacy_reachability(self):
        """Zero-weight concave links and infinite additive links bypass validate_link_value
        when set directly; the specialized solvers must report the same reachability as the
        legacy traversal for them."""
        zero_bw = Network.from_links(
            {(1, 2): {"bandwidth": 0.0, "delay": 1.0}, (2, 3): {"bandwidth": 5.0, "delay": 2.0}}
        )
        inf_delay = Network.from_links({(1, 2): {"delay": float("inf")}, (2, 3): {"delay": 1.0}})
        for network, metric in ((zero_bw, BandwidthMetric()), (inf_delay, DelayMetric())):
            assert best_values_from(network.adjacency, 1, metric) == (
                best_values_from_nx(nx_graph(network.adjacency), 1, metric)
            )

    def test_generic_solver_handles_composite_metrics(self):
        """A lexicographic metric overrides the whole protocol, forcing the generic path."""
        network = random_weighted_network(random.Random(11))
        metric = LexicographicMetric([DelayMetric(), BandwidthMetric()])
        assert metric.kind is MetricKind.ADDITIVE
        fast = best_values_from(network.adjacency, 0, metric)
        assert fast == best_values_from_nx(nx_graph(network.adjacency), 0, metric)

    def test_batched_views_equal_per_node_views(self):
        network = random_weighted_network(random.Random(3))
        batched = LocalView.all_from_network(network)
        assert sorted(batched) == network.nodes()
        for node, view in batched.items():
            single = LocalView.from_network(network, node)
            assert view.one_hop == single.one_hop
            assert view.two_hop == single.two_hop
            assert view.links == single.links


class TestEnumerationPruning:
    def test_all_optimal_paths_found_despite_pruning(self):
        """A diamond with tied optimal paths and one strictly worse detour."""
        network = Network.from_links(
            {
                (0, 1): {"delay": 1.0},
                (0, 2): {"delay": 1.0},
                (1, 3): {"delay": 1.0},
                (2, 3): {"delay": 1.0},
                (0, 3): {"delay": 5.0},
            }
        )
        paths = enumerate_best_paths(network.adjacency, 0, 3, DelayMetric())
        assert paths == [[0, 1, 3], [0, 2, 3]]
        for path in paths:
            assert path_value(network.adjacency, path, DelayMetric()) == 2.0


class TestParallelRunnerEquivalence:
    def test_ans_size_parallel_matches_serial_exactly(self):
        spec = figure_spec(6, "smoke").with_overrides(runs=2)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_overhead_parallel_matches_serial_exactly(self):
        spec = figure_spec(9, "smoke").with_overrides(runs=2)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("figure", [8, 9], ids=["fig8-bandwidth", "fig9-delay"])
    def test_overhead_sweep_with_env_workers_is_byte_identical_to_serial(self, monkeypatch, figure):
        """The fig-8/fig-9 sweeps through the REPRO_WORKERS=2 path must reproduce the
        serial bytes exactly now that the workers carry warm per-trial caches (compact
        graphs, bottleneck forests, per-selector advertised topologies): every cache is
        per-worker and per-trial, so nothing warm leaks across run indices."""
        spec = figure_spec(figure, "smoke").with_overrides(runs=2)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = run_experiment(spec)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = run_experiment(spec)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_workers_resolve_from_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4
        assert resolve_workers(2) == 2  # explicit argument wins
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        with pytest.raises(ValueError):
            resolve_workers()
