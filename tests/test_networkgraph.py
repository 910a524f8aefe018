"""The shared network-level CSR: CSR-native views and batched-kernel bit-identity.

Two families of pins.  First, :class:`LocalView` attached to a :class:`NetworkGraph`: it
holds its sets and references to the shared rows (no per-view map until a scalar
consumer reads ``view.links``), answers every query exactly as a view built from the
network itself, and, held across a dynamic step that changed it, keeps describing (and
batching on) the state it was built from.  Second, the canonical-summation-order
guarantee of the batched additive kernel: its decoded best values (the owner-rooted
labels) are compared against the scalar solver's with exact ``==`` -- not ``approx`` --
on genuinely non-representable float weights, because both accumulate every path cost
as the same left-to-right fold of single additions (the batched side never substitutes
a reduction with a different association order).  Third, the one admission rule,
:func:`~repro.localview.networkgraph.kernel_kind`: one case per clause, each checked
against what both batched kernels then do.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.topology_filtering import TopologyFilteringSelector
from repro.localview import LocalView, NetworkGraph, all_first_hops, prime_first_hops
from repro.localview.batched import batched_all_first_hops
from repro.localview.filtering import batched_filtering_tables
from repro.localview.networkgraph import kernel_kind
from repro.localview.paths import _all_first_hops_owner_dijkstra
from repro.metrics import BandwidthMetric, DelayMetric, LexicographicMetric, UniformWeightAssigner
from repro.mobility import RandomWaypointGenerator
from repro.obs import runtime as obs
from repro.obs.registry import MetricsRegistry
from repro.topology import FieldSpec, FixedCountNetworkGenerator, Network
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


def _graph_state(ng):
    """Everything a graph holds, as comparable values (row iteration order included)."""
    return (
        ng.nodes,
        [getattr(ng, name).tolist() for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v")],
        [list(row) for row in ng.rows.values()],
        [(node, [(other, dict(data)) for other, data in row.items()]) for node, row in ng.adjacency.items()],
        [ng.edge_values(metric).tolist() for metric in (BANDWIDTH, DELAY)],
        [ng.sorted_edges(metric).tolist() for metric in (BANDWIDTH, DELAY)],
    )


def _remove_a_link(network):
    network.remove_link(*sorted(network.links())[0])


def _add_a_link(network):
    u = network.nodes()[0]
    v = next(node for node in reversed(network.nodes()) if node != u and not network.has_link(u, node))
    network.add_link(u, v, bandwidth=0.25, delay=0.25)


def _add_a_linked_node(network):
    newcomer = network.add_node(max(network.nodes()) + 1)
    network.add_link(network.nodes()[0], newcomer, bandwidth=9.0, delay=0.1)


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

    def test_views_outlive_a_rebuild_describing_their_own_state(self):
        """A step that flips a link of ``u`` gives ``u`` a fresh view on a new graph: the
        view held from before the step keeps answering for the state it was built from,
        and keeps batching on the graph it was built on."""
        assigners = tuple(
            UniformWeightAssigner(metric=metric, low=0.5, high=9.5, seed=3)
            for metric in (BANDWIDTH, DELAY)
        )
        dynamic = RandomWaypointGenerator(
            field=FieldSpec(width=320.0, height=320.0, radius=110.0),
            node_count=24,
            seed=2,
            weight_assigners=assigners,
            speed_low=20.0,
            speed_high=60.0,
            pause_high=0.0,
        ).dynamic()
        views = dynamic.views()
        for _ in range(10):
            held, before, ng = dict(views), dynamic.network.copy(), dynamic.network_graph()
            delta = dynamic.advance()
            if delta.link_churn:
                break
        assert delta.link_churn, "expected a step that flips a link"
        u, v = (delta.added or delta.removed)[0]
        view = held[u]
        assert views[u] is not view and dynamic.network_graph() is not ng
        assert view.network_graph() is ng
        reference = LocalView.from_network(before, u)
        assert view.has_link(u, v) == before.has_link(u, v) != dynamic.network.has_link(u, v)
        assert view.one_hop == reference.one_hop and view.two_hop == reference.two_hop
        assert view.neighbors_of(v) == reference.neighbors_of(v)
        assert view.direct_link_values(DELAY) == reference.direct_link_values(DELAY)
        assert view.links == reference.links
        scalar = all_first_hops(reference, DELAY)
        assert prime_first_hops([view], DELAY) == 1  # batched on its own graph
        assert view._first_hops[DELAY.cache_token()].first_hop_results() == scalar
        assert all_first_hops(view, DELAY) == scalar

    def test_snapshot_isolation_from_later_network_mutations(self):
        """The build snapshots attribute dicts: mutating the source network afterwards
        does not leak into the graph's weight arrays, value rows or snapshot."""
        network = float_weighted_network(3)
        ng = NetworkGraph.from_network(network)
        values = ng.edge_values(DELAY).copy()
        u, v = sorted(network.links())[0]
        before = ng.value_rows(DELAY)[u][v]
        network.set_link_weight(u, v, DELAY.name, 999.0)
        assert np.array_equal(ng.edge_values(DELAY), values)
        assert ng.value_rows(DELAY)[u][v] == before != 999.0
        assert ng.adjacency[u][v][DELAY.name] == before
        assert NetworkGraph.from_network(network).value_rows(DELAY)[u][v] == 999.0

    @pytest.mark.parametrize(
        "mutate",
        [_remove_a_link, _add_a_link, _add_a_linked_node],
        ids=["remove-link", "add-link", "add-linked-node"],
    )
    def test_a_graph_and_its_views_keep_their_state_through_structural_changes(self, mutate):
        """Removing or adding links and nodes in the source network changes neither the
        graph built before (arrays, rows, snapshot, per-metric memos) nor what its
        attached views answer; a graph built afterwards sees the change."""
        network = float_weighted_network(4)
        ng = NetworkGraph.from_network(network)
        state = _graph_state(ng)
        views = LocalView.all_from_network(network, network_graph=ng)
        owner = network.nodes()[0]
        answers = (views[owner].one_hop, views[owner].two_hop, dict(views[owner].direct_link_values(DELAY)))
        mutate(network)
        assert _graph_state(ng) == state
        assert (views[owner].one_hop, views[owner].two_hop, views[owner].direct_link_values(DELAY)) == answers
        assert all(view.network_graph() is ng for view in views.values())
        assert _graph_state(NetworkGraph.from_network(network)) != state

    def test_memos_are_filled_once_per_metric_token(self):
        """The lazily filled per-metric arrays and rows are memos: a second read, also
        through another instance of the same metric, returns the same object."""
        network = float_weighted_network(13)
        ng = NetworkGraph.from_network(network)
        for metric, twin in ((BANDWIDTH, BandwidthMetric()), (DELAY, DelayMetric())):
            for read in (ng.edge_values, ng.slot_values, ng.value_rows, ng.sorted_edges):
                first = read(metric)
                assert first is not None and read(twin) is first, (metric.name, read.__name__)
            values = ng.edge_values(metric)
            assert values.tolist() == [
                metric.link_value_from_attributes(ng.adjacency[ng.nodes[u]][ng.nodes[v]])
                for u, v in zip(ng.edge_u.tolist(), ng.edge_v.tolist())
            ]
            assert np.array_equal(ng.slot_values(metric), values[ng.slot_edge])
        assert ng.edge_values(BANDWIDTH) is not ng.edge_values(DELAY)

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
            # The solver itself never reads the primed rows.
            assert _all_first_hops_owner_dijkstra(views[owner], DELAY) == scalar
        finally:
            obs.install(previous)
        # all_first_hops was served from the primed rows, and the direct solver call
        # neither read them nor counted as a scalar dispatch.
        assert registry.counters == {"kernel.primed_hits": 1}

    def test_priming_is_idempotent_and_skips_views_with_their_own_map(self):
        network = float_weighted_network(7)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        u = network.nodes()[0]
        views[u] = LocalView.from_network(network, u)  # own map: skipped, not a crash
        assert views[u].network_graph() is None
        assert prime_first_hops(views.values(), BANDWIDTH) == len(views) - 1
        assert prime_first_hops(views.values(), BANDWIDTH) == 0  # already primed

    def test_views_on_different_graphs_prime_on_their_own(self):
        """Views held from two states of one network batch in one call, each on the
        graph it was built on, and answer for its own state."""
        network = float_weighted_network(14)
        old = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))
        before = network.copy()
        for u, v in sorted(network.links())[::3]:
            network.set_link_weight(u, v, DELAY.name, network.link_attributes(u, v)[DELAY.name] * 3.0)
        new = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))
        owners = network.nodes()
        mixed = [old[owner] for owner in owners[::2]] + [new[owner] for owner in owners[1::2]]
        assert len({id(view.network_graph()) for view in mixed}) == 2
        assert prime_first_hops(mixed, DELAY) == len(mixed)
        changed = 0
        for view in mixed:
            own, other = (before, network) if view is old[view.owner] else (network, before)
            scalar = all_first_hops(LocalView.from_network(own, view.owner), DELAY)
            assert all_first_hops(view, DELAY) == scalar, view.owner
            changed += scalar != all_first_hops(LocalView.from_network(other, view.owner), DELAY)
        assert changed  # the two states really answer differently somewhere

    def test_scalar_solves_never_populate_the_prime_cache(self):
        network = float_weighted_network(8)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        view = views[network.nodes()[0]]
        all_first_hops(view, DELAY)
        assert DELAY.cache_token() not in view._first_hops


class TestCanonicalSummationOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_batched_first_hops_equal_scalar_on_float_weights(self, seed):
        """Exact ``==`` on every decoded best value, no tolerance: the batched kernels
        must reproduce the scalar solvers' float path values bit-for-bit (the additive
        kernel by the same per-edge fold of single additions, combined only through
        exact min)."""
        network = float_weighted_network(seed)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        for metric in (BANDWIDTH, DELAY):
            batch = batched_all_first_hops(ng, list(views.values()), metric)
            for owner in views:
                fresh = LocalView.from_network(network, owner)
                decoded = batch[owner].first_hop_results()
                assert decoded == all_first_hops(fresh, metric), (owner, metric.name)


class _OwnIsBetterBandwidth(BandwidthMetric):
    """Bandwidth whose ``is_better`` ignores differences under 0.1%."""

    def is_better(self, a: float, b: float) -> bool:
        return a > b * 1.001


class _OwnCombineBandwidth(BandwidthMetric):
    """Bandwidth with the stock bottleneck rule written out as its own ``combine``."""

    def combine(self, path_value: float, link_value: float) -> float:
        return link_value if link_value < path_value else path_value


class _OwnOptimumDelay(DelayMetric):
    """Delay with its own ``optimum`` (the stock first-wins scan, delegated)."""

    def optimum(self, values, default=None):
        return super().optimum(values, default)


class _OwnValuesEqualDelay(DelayMetric):
    """Delay with its own ``values_equal`` (the stock tolerance, delegated)."""

    def values_equal(self, a: float, b: float) -> bool:
        return super().values_equal(a, b)


class _NotPrefixOptimalDelay(DelayMetric):
    """Delay that declares its optimal paths may have non-optimal prefixes."""

    @property
    def prefix_optimal(self) -> bool:
        return False


#: A six-node window shape with distinct weights (no near-tie rows), two-hop targets and
#: a three-hop tail.
_ADMISSION_LINKS = {
    (0, 1): {"bandwidth": 4.5, "delay": 0.7},
    (0, 2): {"bandwidth": 2.25, "delay": 1.3},
    (1, 2): {"bandwidth": 6.0, "delay": 0.4},
    (1, 3): {"bandwidth": 3.5, "delay": 2.1},
    (2, 4): {"bandwidth": 5.0, "delay": 0.9},
    (3, 4): {"bandwidth": 1.75, "delay": 1.6},
    (3, 5): {"bandwidth": 8.0, "delay": 0.2},
}

#: case -> (metric, {link: weights replacing its own}, what kernel_kind answers).
_ADMISSION_CASES = {
    "stock-bandwidth": (BANDWIDTH, {}, "concave"),
    "stock-delay": (DELAY, {}, "additive"),
    "zero-delay-link": (DELAY, {(1, 2): {"bandwidth": 6.0, "delay": 0.0}}, "additive"),
    "large-finite-delay-sums": (
        DELAY,
        {(0, 1): {"bandwidth": 4.5, "delay": 1e307}, (1, 3): {"bandwidth": 3.5, "delay": 2e307}},
        "additive",
    ),
    "overflowing-delay-sums": (
        DELAY,
        {(0, 1): {"bandwidth": 4.5, "delay": 1e308}, (1, 3): {"bandwidth": 3.5, "delay": 1e308}},
        None,
    ),
    "negative-delay-link": (DELAY, {(2, 4): {"bandwidth": 5.0, "delay": -0.5}}, None),
    "inf-delay-link": (DELAY, {(2, 4): {"bandwidth": 5.0, "delay": float("inf")}}, None),
    "inf-bandwidth-link": (BANDWIDTH, {(1, 2): {"bandwidth": float("inf"), "delay": 0.4}}, None),
    "nan-bandwidth-link": (BANDWIDTH, {(1, 2): {"bandwidth": float("nan"), "delay": 0.4}}, None),
    "minus-inf-bandwidth-link": (
        BANDWIDTH,
        {(1, 2): {"bandwidth": float("-inf"), "delay": 0.4}},
        None,
    ),
    "link-without-the-weight": (DELAY, {(3, 5): {"bandwidth": 8.0}}, None),
    "own-is-better": (_OwnIsBetterBandwidth(), {}, None),
    "own-combine": (_OwnCombineBandwidth(), {}, None),
    "own-optimum": (_OwnOptimumDelay(), {}, None),
    "own-values-equal": (_OwnValuesEqualDelay(), {}, None),
    "not-prefix-optimal": (_NotPrefixOptimalDelay(), {}, None),
    "composite": (COMPOSITE, {}, None),
}


def _table_state(rows):
    """A table's comparable content (:class:`TargetRows` defines no equality)."""
    return rows.hops, rows.targets, rows.best, rows.masks


class TestKernelAdmission:
    @pytest.mark.parametrize("case", list(_ADMISSION_CASES))
    def test_kernel_kind_decides_what_both_kernels_batch(self, case):
        """A metric the rule declines -- by an override its kernels do not inline, a
        missing, non-finite or negative additive link value, or additive sums that could
        overflow -- is batched by neither kernel and primes no view; one it admits is
        answered for every owner of a shape without near-ties, bit for bit as the
        scalar path answers it.  An override is declined even when it computes the
        stock values: the rule reads the class, not its results."""
        metric, replaced, expected = _ADMISSION_CASES[case]
        network = Network.from_links({**_ADMISSION_LINKS, **replaced})
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        assert kernel_kind(ng, metric) == expected
        first_hops = batched_all_first_hops(ng, list(views.values()), metric)
        tables = batched_filtering_tables(ng, list(views), metric)
        if expected is None:
            assert first_hops is None and tables is None
            assert prime_first_hops(views.values(), metric) == 0
            return
        assert first_hops.keys() == tables.keys() == views.keys()
        selector = TopologyFilteringSelector()
        for owner in views:
            fresh = LocalView.from_network(network, owner)
            assert first_hops[owner].first_hop_results() == all_first_hops(fresh, metric), owner
            assert _table_state(tables[owner]) == _table_state(
                selector._scalar_table(fresh, metric)
            ), owner
        assert prime_first_hops(views.values(), metric) == len(views)
