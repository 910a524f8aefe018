"""Differential tests: batched topology filtering against the scalar selector.

The batched kernel of :mod:`repro.localview.filtering` must reproduce the scalar
``TopologyFilteringSelector`` on every input: ``explain`` on views primed over a shared
CSR returns the scalar ``explain`` result, decision traces included, and ``select_all``
returns the same results with no trace.  The oracles are the scalar selector itself (views
built without a shared CSR) and :func:`repro.localview.rng.dominated_links` /
:func:`~repro.localview.rng.qos_rng_reduce` for the witness table and the per-view rule.
Topologies are drawn by hypothesis as unit-disk deployments, with weights that are
small integers (exact ties), real numbers, or real numbers nudged by less than
``rel_tol`` (near-ties, which send an owner back to the scalar path).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_differential_solvers import (
    ADDITIVE_COMPOSITE,
    BANDWIDTH,
    COMPOSITE,
    DELAY,
    _degenerate_networks,
    unit_disk_network,
)

from repro.baselines.topology_filtering import TopologyFilteringSelector
from repro.localview import LocalView, NetworkGraph, dominated_links, qos_rng_reduce
from repro.localview.filtering import (
    batched_filtering_tables,
    dominance_witnesses,
    prime_filtering_tables,
)
from repro.localview.networkgraph import kernel_kind
from repro.obs import runtime as obs
from repro.obs.registry import MetricsRegistry
from repro.topology import Network
from repro.topology.unit_disk import unit_disk_links

PLAIN_METRICS = (BANDWIDTH, DELAY)
COMPOSITES = (COMPOSITE, ADDITIVE_COMPOSITE)


@contextmanager
def counters():
    """Install a fresh telemetry registry; yields its live counter dict."""
    registry = MetricsRegistry()
    previous = obs.install(registry)
    try:
        yield registry.counters
    finally:
        obs.install(previous)


@st.composite
def unit_disk_networks(draw, max_nodes: int = 26):
    """A unit-disk deployment with bandwidth and delay weights in one of three styles."""
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    coordinate = st.integers(min_value=0, max_value=100)
    positions = {
        node: (float(draw(coordinate)), float(draw(coordinate))) for node in range(count)
    }
    radius = float(draw(st.integers(min_value=15, max_value=60)))
    style = draw(st.sampled_from(("integer", "real", "near-tie")))
    network = Network()
    for node, position in positions.items():
        network.add_node(node, position)
    for u, v in sorted(unit_disk_links(positions, radius)):
        if style == "integer":
            bandwidth = float(draw(st.integers(1, 6)))
            delay = float(draw(st.integers(1, 6)))
        else:
            bandwidth = draw(st.floats(1.0, 6.0))
            delay = draw(st.floats(1.0, 6.0))
            if style == "near-tie":
                # Snap to a coarse grid, then nudge by far less than rel_tol: distinct
                # floats that Metric.values_equal still calls equal.
                bandwidth = round(bandwidth, 1) * (1.0 + draw(st.integers(0, 3)) * 1e-12)
                delay = round(delay, 1) * (1.0 + draw(st.integers(0, 3)) * 1e-12)
        network.add_link(u, v, bandwidth=bandwidth, delay=delay)
    return network


def scalar_selection(network, metric, selector):
    """The oracle: ``explain`` at every owner of views with no shared CSR."""
    views = LocalView.all_from_network(network)
    return {owner: selector.explain(view, metric) for owner, view in views.items()}


def batched_selection(network, metric, selector):
    """select_all over views attached to a fresh shared CSR."""
    views = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))
    return selector.select_all(network, metric, views=views)


def assert_batched_equals_scalar(network, metric, selector):
    """Both batched paths reproduce the scalar oracle; returns the counters of the
    ``select_all`` run.

    ``select_all`` (untraced) must equal the oracle with its trace dropped, and
    ``explain`` on views primed as ``select_all`` primes them must equal it trace
    included.
    """
    expected = scalar_selection(network, metric, selector)
    with counters() as counted:
        batched = batched_selection(network, metric, selector)
    untraced = {owner: replace(result, decisions=None) for owner, result in expected.items()}
    assert batched == untraced, metric.name
    views = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))
    selector.prime(list(views.values()), metric)
    explained = {owner: selector.explain(view, metric) for owner, view in views.items()}
    assert explained == expected, metric.name
    return counted


def witness_table(ng, metric):
    """The kernel's witness table of ``ng`` for a metric it can replay."""
    return dominance_witnesses(ng, metric, kernel_kind(ng, metric))


def near_tie_owners(network, metric):
    """The owners whose scalar table has a near-tie row: a target with a candidate that
    is a different float from the row's best yet ``values_equal`` to it.

    A row's candidates are the direct link and every ``owner - w - target`` path on the
    reduced view, or on the whole view when the reduction leaves the target none.
    """
    owners = set()
    for owner, view in LocalView.all_from_network(network).items():
        reduced = qos_rng_reduce(view.links, metric)
        for target in view.one_hop | view.two_hop:
            for links in (reduced, view.links):
                value = lambda a, b: metric.link_value_from_attributes(links[a][b])  # noqa: E731
                candidates = [value(owner, target)] if target in links[owner] else []
                candidates += [
                    metric.combine(
                        metric.combine(metric.identity, value(owner, w)), value(w, target)
                    )
                    for w in view.one_hop
                    if w != target and w in links[owner] and target in links[w]
                ]
                if candidates:
                    break
            best = metric.optimum(candidates)
            if any(c != best and metric.values_equal(c, best) for c in candidates):
                owners.add(owner)
    return owners


def reference_witnesses(network, metric):
    """Every link's strict-dominance witnesses, by brute force over the network's links."""
    links = network.adjacency
    value = lambda a, b: metric.link_value_from_attributes(links[a][b])  # noqa: E731
    table = {}
    for a, b in network.links():
        direct = value(a, b)
        table[(a, b)] = sorted(
            c
            for c in links[a].keys() & links[b].keys()
            if metric.is_better(value(a, c), direct) and metric.is_better(value(c, b), direct)
        )
    return table


class TestBatchedEqualsScalar:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(network=unit_disk_networks())
    def test_generated_topologies(self, network):
        selector = TopologyFilteringSelector()
        for metric in PLAIN_METRICS + COMPOSITES:
            counted = assert_batched_equals_scalar(network, metric, selector)
            batched = counted.get("filtering.batched_views", 0)
            scalar = counted.get("filtering.scalar_views", 0)
            assert batched + scalar == len(network)
            if metric in COMPOSITES:
                assert batched == 0  # composites always take the scalar path

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_integer_topologies_are_fully_batched(self, seed):
        """Integer weights never near-tie, so every owner is answered by the kernel."""
        network = unit_disk_network(seed)
        selector = TopologyFilteringSelector()
        for metric in PLAIN_METRICS:
            counted = assert_batched_equals_scalar(network, metric, selector)
            assert counted.get("filtering.batched_views") == len(network)
            assert "filtering.scalar_views" not in counted

    @pytest.mark.parametrize("shape", ["near-tie-weights", "tolerance-witness"])
    def test_near_tie_owners_take_the_scalar_path(self, shape):
        """A target whose candidates differ by less than rel_tol: the scalar best value
        depends on the scan order, so the kernel leaves out exactly those owners, and
        they select on the scalar path."""
        network = _degenerate_networks()[shape]
        for metric in PLAIN_METRICS:
            ng = NetworkGraph.from_network(network)
            tables = batched_filtering_tables(ng, list(ng.nodes), metric)
            near_ties = near_tie_owners(network, metric)
            if metric is BANDWIDTH:
                assert 0 in near_ties  # owner 0 reaches a target through near-tied candidates
            assert set(ng.nodes) - set(tables) == near_ties
            counted = assert_batched_equals_scalar(network, metric, TopologyFilteringSelector())
            assert counted.get("filtering.scalar_views", 0) == len(near_ties)
            assert counted.get("filtering.batched_views", 0) == len(network) - len(near_ties)

    def test_primed_table_is_handed_over_once(self):
        network = unit_disk_network(3)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        assert prime_filtering_tables(views.values(), BANDWIDTH) == len(views)
        assert prime_filtering_tables(views.values(), BANDWIDTH) == 0  # already primed
        selector = TopologyFilteringSelector()
        view = next(iter(views.values()))
        with counters() as counted:
            first = selector.select(view, BANDWIDTH)
            second = selector.select(view, BANDWIDTH)
        assert first == second
        assert counted == {"filtering.batched_views": 1, "filtering.scalar_views": 1}

    def test_own_map_and_protocol_views_take_the_scalar_path(self):
        network = unit_disk_network(5)
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        owner = network.nodes()[0]
        views[owner] = LocalView.from_network(network, owner)
        tables = {
            node: LocalView.from_tables(
                node,
                {n: network.link_attributes(node, n) for n in network.neighbors(node)},
                {},
            )
            for node in network.nodes()[:3]
        }
        assert prime_filtering_tables(list(tables.values()), BANDWIDTH) == 0
        assert prime_filtering_tables(views.values(), BANDWIDTH) == len(views) - 1


class TestWitnessTable:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(network=unit_disk_networks())
    def test_witnesses_match_the_reference_on_generated_topologies(self, network):
        ng = NetworkGraph.from_network(network)
        for metric in PLAIN_METRICS:
            ptr, nodes = witness_table(ng, metric)
            table = {
                (ng.nodes[u], ng.nodes[v]): [ng.nodes[c] for c in nodes[ptr[e] : ptr[e + 1]]]
                for e, (u, v) in enumerate(zip(ng.edge_u.tolist(), ng.edge_v.tolist()))
            }
            assert table == reference_witnesses(network, metric)
            dominated = {edge for edge, witnesses in table.items() if witnesses}
            assert dominated == dominated_links(network.adjacency, metric)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(network=unit_disk_networks())
    def test_per_view_rule_reproduces_the_view_reduction(self, network):
        """A link (a, b) of G_u is reduced away exactly when one of its network-wide
        witnesses c has at least two of {a, b, c} inside N(u)."""
        for metric in PLAIN_METRICS:
            witnesses = reference_witnesses(network, metric)
            for view in LocalView.all_from_network(network).values():
                reduced = qos_rng_reduce(view.links, metric)
                links = [(a, b) for a, row in view.links.items() for b in row if a < b]
                removed = {(a, b) for a, b in links if b not in reduced[a]}
                by_rule = {
                    (a, b)
                    for a, b in links
                    if any(
                        len({a, b, c} & view.one_hop) >= 2
                        for c in witnesses[(a, b)]
                    )
                }
                assert removed == by_rule

    def test_equal_within_tolerance_legs_do_not_dominate(self):
        network = _degenerate_networks()["tolerance-witness"]
        ng = NetworkGraph.from_network(network)
        for metric in PLAIN_METRICS:
            ptr, nodes = witness_table(ng, metric)
            assert nodes.size == 0
            assert dominated_links(network.adjacency, metric) == set()

    def test_unreplayable_metrics_have_no_table(self):
        ng = NetworkGraph.from_network(unit_disk_network(1))
        for metric in COMPOSITES:
            assert kernel_kind(ng, metric) is None
            assert batched_filtering_tables(ng, list(ng.nodes), metric) is None
