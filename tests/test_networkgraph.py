"""The shared network-level CSR: CSR-native views and batched-kernel bit-identity.

Two families of pins.  First, :class:`LocalView` attached to a :class:`NetworkGraph`: it
holds its sets and references to the shared rows (no per-view map until a scalar
consumer reads ``view.links``), answers every query exactly as a view built from the
network itself, sees in-place weight patches once its caches are dropped, keeps
describing its own state across a structural rebuild (and stops batching), and the
sanctioned per-view mutation (``update_link``) detaches exactly the touched view.
Second, the canonical-summation-order guarantee of the batched additive kernel: its
distance labels are compared against the scalar Dijkstra's with exact ``==`` -- not
``approx`` -- on genuinely non-representable float weights, because both accumulate
every path cost as the same left-to-right fold of single additions (the batched side
never substitutes a reduction with a different association order).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.localview import LocalView, NetworkGraph, all_first_hops, prime_first_hops
from repro.localview.batched import batched_additive_labels, batched_all_first_hops
from repro.localview.compactgraph import best_values
from repro.metrics import BandwidthMetric, DelayMetric, LexicographicMetric
from repro.obs import runtime as obs
from repro.obs.registry import MetricsRegistry
from repro.topology import FieldSpec, FixedCountNetworkGenerator
from tests.nx_oracles import nx_graph

BANDWIDTH = BandwidthMetric()
DELAY = DelayMetric()
COMPOSITE = LexicographicMetric([DelayMetric(), BandwidthMetric()])


def float_weighted_network(seed: int, node_count: int = 24):
    """A seeded unit-disk network with *irrational-ish* float weights.

    ``rng.uniform`` draws are almost never exactly representable sums of each other, so
    any reassociation of a path's additions would move the accumulated cost by an ulp --
    exactly what the exact-equality pins below are designed to catch.
    """
    network = FixedCountNetworkGenerator(
        field=FieldSpec(width=320.0, height=320.0, radius=110.0),
        node_count=node_count,
        seed=seed,
        restrict_to_largest_component=True,
    ).generate()
    rng = random.Random(seed * 6007 + 3)
    for u, v in sorted(network.links()):
        network.add_link(u, v, bandwidth=rng.uniform(0.5, 9.5), delay=rng.uniform(0.05, 7.5))
    return network


class TestAttachedViews:
    def test_views_hold_the_shared_rows_and_no_graph(self):
        network = float_weighted_network(0)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        for owner, view in views.items():
            assert view.network_graph() is ng
            # References into the shared CSR, not copies: the one-hop set is the owner's
            # row, and the view has no map of its own until someone reads view.links.
            assert view.one_hop is ng.rows[owner]
            assert view._links is None
            g = ng.index[owner]
            row = [ng.nodes[j] for j in ng.indices[ng.indptr[g] : ng.indptr[g + 1]].tolist()]
            assert row == sorted(view.one_hop)
            two_hop = set().union(*(ng.rows[n] for n in view.one_hop)) - view.one_hop - {owner}
            assert view.two_hop == two_hop

    def test_rows_iterate_like_the_network_adjacency(self):
        """``one_hop`` decides Metric.optimum's first-wins scans, so an attached view must
        iterate it exactly as a view built from the network does."""
        network = float_weighted_network(9)
        ng = NetworkGraph.from_network(network)
        reference = nx_graph(network.adjacency).adj  # a frozenset of one of its rows is filled node by node
        for node in network.nodes():
            assert list(ng.rows[node]) == list(frozenset(reference[node]))
            assert list(ng.adjacency[node]) == list(network.adjacency[node])
        views = LocalView.all_from_network(network, network_graph=ng)
        for owner, view in views.items():
            fresh = LocalView.from_network(network, owner)
            assert list(view.one_hop) == list(fresh.one_hop)
            assert list(view.two_hop) == list(fresh.two_hop)

    def test_attached_views_answer_like_views_built_from_the_network(self):
        network = float_weighted_network(10)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        outsider = max(network.nodes()) + 1
        for owner, view in views.items():
            fresh = LocalView.from_network(network, owner)
            assert view.nodes == fresh.nodes
            for node in sorted(fresh.nodes) + [outsider]:
                assert (node in view) == (node in fresh.links)
                assert view.neighbors_of(node) == fresh.neighbors_of(node), (owner, node)
                assert view.common_relays(node) == fresh.common_relays(node), (owner, node)
            for u in sorted(fresh.nodes):
                for v in sorted(fresh.nodes):
                    assert view.has_link(u, v) == fresh.has_link(u, v), (owner, u, v)
                    if fresh.has_link(u, v):
                        assert view.link_value(u, v, DELAY) == fresh.link_value(u, v, DELAY)
            for metric in (BANDWIDTH, DELAY, COMPOSITE):
                assert view.direct_link_values(metric) == fresh.direct_link_values(metric)
                for neighbor in view.one_hop:
                    assert view.direct_link_value(neighbor, metric) == fresh.direct_link_value(
                        neighbor, metric
                    )
            assert view._links is None  # none of the above needed the view's own map

    def test_direct_values_come_from_the_shared_value_rows(self):
        network = float_weighted_network(11)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        rows = ng.value_rows(DELAY)
        for owner, view in views.items():
            assert view.direct_link_values(DELAY) is rows[owner]
            assert view.direct_link_values(DELAY) is view.direct_link_values(DELAY)
        assert ng.value_rows(COMPOSITE) is None  # composites read the attributes instead

    def test_the_graph_is_materialized_once_from_the_snapshot(self):
        """view.links equals the map of a view built from the network -- node order, row
        order and attributes -- and is derived from the CSR's snapshot, never from the
        live network (which may have moved on)."""
        network = float_weighted_network(12)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        owner = network.nodes()[3]
        fresh = LocalView.from_network(network, owner)
        u, v = min((a, b) for a, row in fresh.links.items() for b in row)
        network.set_link_weight(u, v, DELAY.name, 777.0)  # the live network moves on
        links = views[owner].links
        assert links is views[owner].links  # derived once
        assert [(n, list(row.items())) for n, row in links.items()] == [
            (n, list(row.items())) for n, row in fresh.links.items()
        ]
        assert links[u][v] is ng.adjacency[u][v]  # the shared snapshot, not a copy

    def test_weight_patches_reach_views_once_their_caches_drop(self):
        """patch_weights rewrites the shared arrays in place: a view that sees the link
        answers with the new value after invalidate_caches, without being rebuilt, and
        stays attached."""
        network = float_weighted_network(1)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        u, v = sorted(network.links())[0]
        view = views[u]
        slot_array_before = ng.slot_values(DELAY)
        before = view.direct_link_value(v, DELAY)
        links_before = view.links
        network.set_link_weight(u, v, DELAY.name, 123.456)
        ng.patch_weights(network, [(u, v)])
        # Same array object, patched in place -- references held by kernels stay valid.
        assert ng.slot_values(DELAY) is slot_array_before
        assert 123.456 in ng.slot_values(DELAY).tolist()
        view.invalidate_caches()
        assert view.network_graph() is ng  # a weight patch does not detach
        assert view.direct_link_value(v, DELAY) == 123.456 != before
        assert view.link_value(u, v, DELAY) == 123.456
        assert view.links is not links_before  # the stale map was dropped
        assert view.links[u][v][DELAY.name] == 123.456

    def test_views_outlive_a_rebuild_describing_their_own_state(self):
        """A structural rebuild replaces the rows: views built before it keep answering
        for the state they were built from, and stop batching on the rebuilt arrays."""
        network = float_weighted_network(2)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        u, v = sorted(network.links())[0]
        held = views[u]
        before = LocalView.from_network(network, u)
        network.remove_link(u, v)
        generation = ng.generation
        ng.rebuild(network)
        assert ng.generation == generation + 1
        assert all(view.network_graph() is None for view in views.values())
        assert held.one_hop == before.one_hop and v in held.one_hop
        assert held.neighbors_of(v) == before.neighbors_of(v)
        assert held.has_link(u, v)
        assert held.direct_link_values(DELAY) == before.direct_link_values(DELAY)
        assert held.links == before.links
        assert prime_first_hops([held], DELAY) == 0  # never primed from the new arrays
        assert all_first_hops(held, DELAY) == all_first_hops(before, DELAY)
        rebuilt = LocalView.all_from_network(network, network_graph=ng)[u]
        assert rebuilt.network_graph() is ng and v not in rebuilt.one_hop

    def test_snapshot_isolation_from_later_network_mutations(self):
        """The build snapshots attribute dicts: mutating the source network afterwards
        must not leak into already-extracted weight arrays until patch_weights."""
        network = float_weighted_network(3)
        ng = NetworkGraph.from_network(network)
        values = ng.edge_values(DELAY).copy()
        u, v = sorted(network.links())[0]
        network.set_link_weight(u, v, DELAY.name, 999.0)
        assert np.array_equal(ng.edge_values(DELAY), values)  # unchanged until patched
        ng.patch_weights(network, [(u, v)])
        assert not np.array_equal(ng.edge_values(DELAY), values)

    def test_update_link_detaches_exactly_the_touched_view(self):
        network = float_weighted_network(4)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        u, v = sorted(network.links())[0]
        views[u].update_link(u, v, delay=3.25)
        assert views[u].network_graph() is None
        assert views[u].link_value(u, v, DELAY) == 3.25
        assert views[v].link_value(u, v, DELAY) != 3.25  # the update stays local
        assert ng.adjacency[u][v][DELAY.name] != 3.25
        for owner, view in views.items():
            if owner != u:
                assert view.network_graph() is ng, owner

    def test_composite_metrics_are_never_materialized(self):
        network = float_weighted_network(5)
        ng = NetworkGraph.from_network(network)
        assert ng.edge_values(COMPOSITE) is None
        assert ng.slot_values(COMPOSITE) is None
        assert ng.sorted_edges(COMPOSITE) is None
        views = LocalView.all_from_network(network, network_graph=ng)
        assert batched_all_first_hops(ng, list(views.values()), COMPOSITE) is None


class TestPriming:
    def test_primed_views_answer_auto_solves_from_the_batch(self):
        network = float_weighted_network(6)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        primed = prime_first_hops(views.values(), DELAY)
        assert primed == len(views)
        owner = network.nodes()[0]
        scalar = all_first_hops(LocalView.from_network(network, owner), DELAY)
        registry = MetricsRegistry()
        previous = obs.install(registry)
        try:
            assert all_first_hops(views[owner], DELAY) == scalar
            # Explicit-method calls bypass the cache (method comparisons stay honest).
            assert all_first_hops(views[owner], DELAY, method="owner-dijkstra") == scalar
        finally:
            obs.install(previous)
        # The auto dispatch was served from the primed rows, and the explicit call
        # neither read them nor counted as a scalar dispatch.
        assert registry.counters == {"kernel.primed_hits": 1}

    def test_priming_is_idempotent_and_skips_detached_views(self):
        network = float_weighted_network(7)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        u, v = sorted(network.links())[0]
        views[u].update_link(u, v, delay=1.125)  # detached: must be skipped, not crash
        assert prime_first_hops(views.values(), BANDWIDTH) == len(views) - 1
        assert prime_first_hops(views.values(), BANDWIDTH) == 0  # already primed

    def test_scalar_solves_never_populate_the_prime_cache(self):
        network = float_weighted_network(8)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        view = views[network.nodes()[0]]
        all_first_hops(view, DELAY)
        assert DELAY.cache_token() not in view._first_hops


class TestCanonicalSummationOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_batched_additive_labels_equal_scalar_dijkstra_exactly(self, seed):
        """Exact ``==`` on every label, no tolerance: the batched kernel must reproduce
        the scalar solver's float path costs bit-for-bit (same per-edge fold of single
        additions, candidates combined only through exact min)."""
        network = float_weighted_network(seed)
        ng = NetworkGraph.from_network(network)
        owners = network.nodes()
        labels = batched_additive_labels(ng, owners, DELAY)
        assert labels is not None
        for owner in owners:
            view = LocalView.from_network(network, owner)
            cg = view.compact_graph(DELAY)
            scalar = {
                cg.nodes[i]: value
                for i, value in best_values(cg, cg.index[owner], DELAY).items()
            }
            assert labels[owner] == scalar, owner  # exact, not approx

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_first_hops_equal_scalar_on_float_weights(self, seed):
        network = float_weighted_network(seed)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        for metric in (BANDWIDTH, DELAY):
            batch = batched_all_first_hops(ng, list(views.values()), metric)
            for owner in views:
                fresh = LocalView.from_network(network, owner)
                decoded = batch[owner].first_hop_results()
                assert decoded == all_first_hops(fresh, metric), (owner, metric.name)
