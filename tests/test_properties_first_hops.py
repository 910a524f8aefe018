"""Property-based tests of the first-hop machinery on random weighted graphs.

These are the load-bearing invariants of the whole reproduction: the fast all-targets
first-hop computations must agree with the direct per-target transcription of the paper's
definition, and the first-hop sets themselves must satisfy the defining property (a neighbor
is in ``fP(u, v)`` iff starting with that neighbor's link can achieve the optimal value).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.localview import LocalView, all_first_hops, best_value_between, first_hops_to
from repro.localview.paths import (
    _all_first_hops_bottleneck_forest,
    _all_first_hops_owner_dijkstra,
)
from repro.metrics import BandwidthMetric, DelayMetric
from repro.topology import Network


METRICS = (BandwidthMetric(), DelayMetric())
#: The single-pass solver ``all_first_hops`` dispatches to for each of ``METRICS``.
FAST_SOLVERS = (_all_first_hops_bottleneck_forest, _all_first_hops_owner_dijkstra)


def _per_target(view, metric):
    """The per-target reference: :func:`first_hops_to` once per known target."""
    return {target: first_hops_to(view, target, metric) for target in view.known_targets()}


@st.composite
def random_weighted_networks(draw, max_nodes: int = 12):
    """A small connected-ish random network with integer-ish weights (ties are likely)."""
    node_count = draw(st.integers(min_value=3, max_value=max_nodes))
    nodes = list(range(node_count))
    network = Network()
    for node in nodes:
        network.add_node(node, (float(node), 0.0))
    # A random spanning chain keeps most graphs connected, then extra random edges.
    edges = set()
    for left, right in zip(nodes, nodes[1:]):
        edges.add((left, right))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, node_count - 1), st.integers(0, node_count - 1)),
            max_size=2 * node_count,
        )
    )
    for a, b in extra:
        if a != b:
            edges.add((min(a, b), max(a, b)))
    for a, b in sorted(edges):
        bandwidth = draw(st.integers(min_value=1, max_value=6))
        delay = draw(st.integers(min_value=1, max_value=6))
        network.add_link(a, b, bandwidth=float(bandwidth), delay=float(delay))
    return network


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network=random_weighted_networks(), owner_index=st.integers(min_value=0, max_value=11))
def test_fast_first_hop_methods_agree_with_reference(network, owner_index):
    owner = sorted(network.nodes())[owner_index % len(network.nodes())]
    view = LocalView.from_network(network, owner)
    for metric, fast in zip(METRICS, FAST_SOLVERS):
        reference = _per_target(view, metric)
        assert fast(view, metric) == reference
        assert all_first_hops(view, metric) == reference


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network=random_weighted_networks(), owner_index=st.integers(min_value=0, max_value=11))
def test_first_hop_sets_satisfy_their_defining_property(network, owner_index):
    """w ∈ fP(u, v) iff combine(w(u, w), best(w → v in G_u \\ u)) equals the optimum, and the
    optimum over all neighbors equals the view-wide best value from u to v."""
    owner = sorted(network.nodes())[owner_index % len(network.nodes())]
    view = LocalView.from_network(network, owner)
    for metric in METRICS:
        for target in view.known_targets():
            result = first_hops_to(view, target, metric)
            candidates = {}
            for neighbor in view.one_hop:
                link = view.direct_link_value(neighbor, metric)
                if neighbor == target:
                    remainder = metric.identity
                else:
                    remainder = best_value_between(
                        view.links, neighbor, target, metric, excluded=(owner,)
                    )
                    if not metric.is_usable(remainder) and not metric.values_equal(
                        remainder, metric.identity
                    ):
                        continue
                candidates[neighbor] = metric.combine(metric.combine(metric.identity, link), remainder)
            assert candidates, "a known target must be reachable through some neighbor"
            best = metric.optimum(candidates.values())
            assert metric.values_equal(best, result.best_value)
            expected_first_hops = {
                neighbor
                for neighbor, value in candidates.items()
                if metric.values_equal(value, best)
            }
            assert result.first_hops == frozenset(expected_first_hops)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network=random_weighted_networks(), owner_index=st.integers(min_value=0, max_value=11))
def test_first_hops_are_always_one_hop_neighbors(network, owner_index):
    """``fP(u, v)`` is by definition a subset of ``N(u)``, under every solver and metric."""
    owner = sorted(network.nodes())[owner_index % len(network.nodes())]
    view = LocalView.from_network(network, owner)
    for metric, fast in zip(METRICS, FAST_SOLVERS):
        for solve in (fast, all_first_hops, _per_target):
            for result in solve(view, metric).values():
                assert result.first_hops <= view.one_hop


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network=random_weighted_networks(), owner_index=st.integers(min_value=0, max_value=11))
def test_concave_best_values_respect_the_direct_link_bottleneck_bound(network, owner_index):
    """A bottleneck path's value can never exceed its first link: for every first hop ``n``
    of a concave-optimal path, ``best_value <= w(u, n)`` (up to the metric's tolerance)."""
    metric = BandwidthMetric()
    owner = sorted(network.nodes())[owner_index % len(network.nodes())]
    view = LocalView.from_network(network, owner)
    for result in all_first_hops(view, metric).values():
        for neighbor in result.first_hops:
            direct = view.direct_link_value(neighbor, metric)
            assert metric.is_better_or_equal(direct, result.best_value)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network=random_weighted_networks(), owner_index=st.integers(min_value=0, max_value=11))
def test_best_value_in_view_never_beats_global_optimum(network, owner_index):
    """A node's local view is a subgraph of the truth, so its best values cannot exceed the
    network-wide optimum (the paper's Figure 2 argument about localized algorithms)."""
    from repro.routing import optimal_route

    owner = sorted(network.nodes())[owner_index % len(network.nodes())]
    view = LocalView.from_network(network, owner)
    for metric in METRICS:
        for target in view.known_targets():
            local = first_hops_to(view, target, metric).best_value
            global_best = optimal_route(network, owner, target, metric).value
            assert metric.is_better_or_equal(global_best, local)
