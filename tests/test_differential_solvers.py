"""Differential tests: every fast solver path against its retained networkx reference.

The compact-graph solvers, the cached bottleneck forests and the link-state route search
are pure-performance rewrites of straightforward networkx code, so the seed
implementations are retained (the ``*_nx`` solvers of ``tests/nx_oracles.py``) and this
suite pins the fast paths to them on a corpus of seeded random unit-disk topologies -- the
same deployment model the paper's evaluation uses -- across all metric families
(bandwidth, delay, and a lexicographic composite that forces the generic solver).  In the
style of Monte-Carlo simulation-validation suites, the comparison is exact equality of the
full result objects, not statistical closeness: the caches are only allowed to make the
computation faster, never different.
"""

from __future__ import annotations

import json
import random
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.selection import make_selector
from repro.experiments.engine import run_experiment
from repro.experiments.presets import figure_spec
from repro.localview import LocalView, all_first_hops, best_values_from
from repro.metrics import BandwidthMetric, DelayMetric, LexicographicMetric
from repro.routing.advertised import AdvertisedTopologyBuilder
from repro.routing.hop_by_hop import HopByHopRouter, RouteOutcome
from repro.topology import FieldSpec, FixedCountNetworkGenerator
from tests.nx_oracles import (
    all_first_hops_bottleneck_forest_nx,
    all_first_hops_owner_dijkstra_nx,
    best_path_nx,
    best_values_from_nx,
    first_hops_to_nx,
    nx_graph,
)

TOPOLOGY_COUNT = 50

from repro.metrics.base import AdditiveMetric


class CongestionMetric(AdditiveMetric):
    """An additive cost read off the ``bandwidth`` attribute (a second additive criterion
    with values genuinely different from delay, so composite tuples are not degenerate)."""

    name = "bandwidth"


BANDWIDTH = BandwidthMetric()
DELAY = DelayMetric()
#: A composite mixing the families; overrides the whole metric protocol, forcing the
#: generic solver paths, and is not prefix-optimal.
COMPOSITE = LexicographicMetric([DelayMetric(), BandwidthMetric()])
#: An all-additive composite: tuple-valued like COMPOSITE but prefix-optimal, so it is the
#: one composite the owner-dijkstra propagation (its generic tuple branch) must handle.
ADDITIVE_COMPOSITE = LexicographicMetric([DelayMetric(), CongestionMetric()], name="lex-additive")
#: The selectors the paper's overhead figures compare.
PAPER_SELECTORS = ("qolsr-mpr2", "topology-filtering", "fnbp")

#: Metrics paired with the all-targets fast methods that are valid for them.  The mixed
#: composite gets no single-pass method: it is not prefix-optimal (its concave component
#: lets a suffix's ``min`` erase a prefix's disadvantage), so owner-dijkstra would
#: under-report first-hop sets -- the exact bug this suite originally caught in the
#: ``auto`` dispatch.  The all-additive composite IS prefix-optimal and exercises
#: owner-dijkstra's generic tuple-valued tight-link branch.
METHODS_BY_METRIC = (
    (BANDWIDTH, ("per-target", "bottleneck-forest", "auto")),
    (DELAY, ("per-target", "owner-dijkstra", "auto")),
    (COMPOSITE, ("per-target", "auto")),
    (ADDITIVE_COMPOSITE, ("per-target", "owner-dijkstra", "auto")),
)


def unit_disk_network(seed: int):
    """One seeded random unit-disk topology with bandwidth and delay weights.

    Small *integer-valued* weights serve two purposes: value ties (and therefore
    multi-element first-hop sets) become likely, which is where the fast paths are easiest
    to get wrong, and additive path sums are exact in binary floating point, so solvers
    that accumulate a path's value from opposite ends (owner-rooted vs target-rooted) must
    agree bit-for-bit rather than merely up to rounding.
    """
    network = FixedCountNetworkGenerator(
        field=FieldSpec(width=320.0, height=320.0, radius=110.0),
        node_count=22,
        seed=seed,
        restrict_to_largest_component=True,
    ).generate()
    rng = random.Random(seed * 7919 + 1)
    for u, v in sorted(network.links()):
        network.add_link(
            u, v, bandwidth=float(rng.randint(1, 6)), delay=float(rng.randint(1, 6))
        )
    return network


def _owners(network):
    """A deterministic small owner sample spread over the node range."""
    nodes = network.nodes()
    return sorted({nodes[0], nodes[len(nodes) // 2], nodes[-1]})


def _reference_first_hops(view, metric):
    return {target: first_hops_to_nx(view, target, metric) for target in view.known_targets()}


_NX_TWINS = {
    "owner-dijkstra": all_first_hops_owner_dijkstra_nx,
    "bottleneck-forest": all_first_hops_bottleneck_forest_nx,
}


class TestFastSolversMatchNetworkxReferences:
    @pytest.mark.parametrize("seed", range(TOPOLOGY_COUNT))
    def test_all_methods_and_metrics_on_one_topology(self, seed):
        """Every fast method equals the per-target reference AND its own networkx twin,
        cold and warm (the second run answers from the cached compact graph)."""
        network = unit_disk_network(seed)
        for owner in _owners(network):
            view = LocalView.from_network(network, owner)
            for metric, methods in METHODS_BY_METRIC:
                reference = _reference_first_hops(view, metric)
                for method in methods:
                    cold = all_first_hops(view, metric, method=method)
                    assert cold == reference, (seed, owner, metric.name, method)
                    twin = _NX_TWINS.get(method)
                    if twin is not None:
                        assert cold == twin(view, metric), (seed, owner, metric.name, method)
                    warm = all_first_hops(view, metric, method=method)
                    assert warm == reference, (seed, owner, metric.name, method, "warm")

    def test_owner_dijkstra_is_rejected_for_non_prefix_optimal_metrics(self):
        """Mixed composites must not reach the tight-link propagation (found by this suite:
        the auto dispatch used to send every ADDITIVE-kind metric, composites included, to
        owner-dijkstra, silently dropping first hops whose path prefixes were suboptimal)."""
        network = unit_disk_network(0)
        view = LocalView.from_network(network, _owners(network)[0])
        assert not COMPOSITE.prefix_optimal
        with pytest.raises(ValueError):
            all_first_hops(view, COMPOSITE, method="owner-dijkstra")
        assert ADDITIVE_COMPOSITE.prefix_optimal  # exercised in METHODS_BY_METRIC above

    @pytest.mark.parametrize("seed", range(0, TOPOLOGY_COUNT, 5))
    def test_best_values_with_exclusions_match_reference(self, seed):
        network = unit_disk_network(seed)
        nodes = network.nodes()
        source, excluded = nodes[0], (nodes[len(nodes) // 3],)
        for metric in (BANDWIDTH, DELAY, COMPOSITE, ADDITIVE_COMPOSITE):
            assert best_values_from(network.adjacency, source, metric, excluded) == (
                best_values_from_nx(nx_graph(network.adjacency), source, metric, excluded)
            )


class TestAdvertisedTopologyBuilder:
    def test_builder_validates_unknown_links_like_the_full_build(self):
        network = unit_disk_network(0)
        nodes = network.nodes()
        non_neighbor = next(
            other for other in nodes if other != nodes[0] and not network.has_link(nodes[0], other)
        )
        builder = AdvertisedTopologyBuilder(network)
        with pytest.raises(ValueError):
            builder.build({nodes[0]: frozenset({non_neighbor})})

    def test_link_state_paths_do_not_depend_on_build_history(self):
        """A selector's link-state routes, paths included, are the same whether its
        topology was built on a builder that first built the other selectors' topologies
        or on a fresh builder (a builder that diffed one shared graph failed this on seed
        0: tied paths followed the graph's edge insertion order)."""
        seed = 0
        network = unit_disk_network(seed)
        views = LocalView.all_from_network(network)
        pairs = list(permutations(network.nodes(), 2))
        for metric in (BANDWIDTH, DELAY):
            selections = {
                name: make_selector(name).select_all(network, metric, views=views)
                for name in PAPER_SELECTORS
            }
            for name in PAPER_SELECTORS:
                builder = AdvertisedTopologyBuilder(network)
                for other in PAPER_SELECTORS:
                    if other != name:
                        builder.build(selections[other])
                after_others = HopByHopRouter(network, builder.build(selections[name]), metric)
                fresh = HopByHopRouter(
                    network, AdvertisedTopologyBuilder(network).build(selections[name]), metric
                )
                for source, destination in pairs:
                    assert after_others.link_state_route(source, destination) == (
                        fresh.link_state_route(source, destination)
                    ), (seed, metric.name, name, source, destination)


class TestSweepsUnchangedByCaching:
    def test_overhead_sweep_equals_cache_free_reference(self):
        """The full fig-8 pipeline (cached selections and advertised topologies ->
        link-state routing) returns byte-identical results to a from-zero reference that
        builds every selection and advertised topology afresh and shares no state."""
        from repro.experiments.results import ExperimentResult, SeriesPoint
        from repro.experiments.runner import build_trial
        from repro.experiments.measures import qos_overhead
        from repro.experiments.stats import summarize
        from repro.routing.optimal import optimal_route

        spec = figure_spec(8, "smoke").with_overrides(
            runs=2, experiment_id="fig8-diff", title="QoS overhead vs the centralized optimum"
        )
        metric = BANDWIDTH
        fast = run_experiment(spec)

        reference = ExperimentResult(
            experiment_id="fig8-diff",
            title="QoS overhead vs the centralized optimum",
            metric_name=metric.name,
            x_label="density",
            y_label=f"{metric.name} overhead",
        )
        overheads = {name: [] for name in spec.selectors}
        deliveries = {name: [] for name in spec.selectors}
        density = spec.densities[0]
        for run_index in range(spec.runs):
            trial = build_trial(spec, metric, density, run_index)
            if len(trial.network) < 2:
                continue
            routed = []
            for source, destination in trial.sample_pairs(spec.pairs_per_run):
                optimal = optimal_route(trial.network, source, destination, metric)
                if optimal.reachable and metric.is_usable(optimal.value):
                    routed.append((source, destination, optimal.value))
            for name in spec.selectors:
                advertised = AdvertisedTopologyBuilder(trial.network).build(
                    make_selector(name).select_all(trial.network, metric)
                )
                router = HopByHopRouter(trial.network, advertised, metric)
                for source, destination, optimal_value in routed:
                    outcome = router.link_state_route(source, destination)
                    deliveries[name].append(1.0 if outcome.delivered else 0.0)
                    if outcome.delivered:
                        overheads[name].append(qos_overhead(metric, outcome.value, optimal_value))
        for name in spec.selectors:
            delivery = summarize(deliveries[name])
            reference.add_point(
                name,
                SeriesPoint(
                    density=density,
                    summary=summarize(overheads[name]),
                    extra={"delivery_ratio": delivery.mean, "attempts": float(delivery.count)},
                ),
            )

        fast_dict = fast.to_dict()
        fast_dict.pop("notes", None)
        reference_dict = reference.to_dict()
        reference_dict.pop("notes", None)
        assert json.dumps(fast_dict, sort_keys=True) == json.dumps(reference_dict, sort_keys=True)


# --------------------------------------------------------------------------- degenerate
# Adversarial degenerate topologies: the batched shared-CSR kernels and the scalar
# solvers must agree (and neither may crash) on the network shapes that stress empty
# arrays, empty windows, and tolerance-driven tie-breaking -- single-node networks,
# zero-edge views, isolated owners, fully disconnected components, and duplicate link
# weights.  Every registered selector runs on both paths on every metric family.


def _degenerate_networks():
    """Name → Network for each adversarial shape (weights on both metric attributes)."""
    from repro.topology.network import Network

    def weighted(links, isolated=(), positions=None):
        network = Network.from_links(links, positions)
        for node in isolated:
            network.add_node(node)
        return network

    uniform = {"bandwidth": 3.0, "delay": 3.0}
    shapes = {}

    single = Network()
    single.add_node(0, (0.0, 0.0))
    shapes["single-node"] = single

    # Zero-edge views everywhere: nodes exist, no links at all.
    no_links = Network()
    for node in range(4):
        no_links.add_node(node, (float(node), 0.0))
    shapes["no-links"] = no_links

    # One connected triangle plus an isolated owner with an empty view.
    shapes["isolated-owner"] = weighted(
        {(0, 1): dict(uniform), (1, 2): dict(uniform), (0, 2): dict(uniform)},
        isolated=(9,),
    )

    # Two components that never see each other (views are windows of a CSR holding both).
    shapes["two-components"] = weighted(
        {
            (0, 1): {"bandwidth": 2.0, "delay": 1.0},
            (1, 2): {"bandwidth": 5.0, "delay": 4.0},
            (10, 11): {"bandwidth": 1.0, "delay": 2.0},
            (11, 12): {"bandwidth": 3.0, "delay": 3.0},
            (10, 12): {"bandwidth": 3.0, "delay": 3.0},
        }
    )

    # Every link identical: every path value ties, so first-hop sets are maximal and
    # selection leans entirely on the deterministic tie-breaking order.
    shapes["all-duplicate-weights"] = weighted(
        {
            (u, v): dict(uniform)
            for u, v in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (0, 4)]
        }
    )

    # A path graph whose two equal-weight branches meet again: duplicate weights along
    # parallel routes, plus degree-1 endpoints (single-slot CSR rows).
    shapes["parallel-ties"] = weighted(
        {
            (0, 1): {"bandwidth": 4.0, "delay": 2.0},
            (0, 2): {"bandwidth": 4.0, "delay": 2.0},
            (1, 3): {"bandwidth": 4.0, "delay": 2.0},
            (2, 3): {"bandwidth": 4.0, "delay": 2.0},
            (3, 5): {"bandwidth": 1.0, "delay": 7.0},
        }
    )

    # Two relays to one target whose path values differ by less than rel_tol: distinct
    # floats that Metric.values_equal calls equal, so the scalar best value depends on
    # the candidate scan order and the batched paths must replay the scalar scan.
    shapes["near-tie-weights"] = weighted(
        {
            (0, 1): {"bandwidth": 5.0, "delay": 2.0},
            (0, 2): {"bandwidth": 5.0 + 1e-11, "delay": 2.0 + 1e-12},
            (1, 3): {"bandwidth": 5.0, "delay": 2.0},
            (2, 3): {"bandwidth": 5.0 + 1e-11, "delay": 2.0},
            (3, 4): {"bandwidth": 1.0, "delay": 1.0},
        }
    )

    # A triangle whose detour legs beat the direct link (0, 1) only within tolerance:
    # the witness 2 must not dominate it, so the RNG reduction keeps every link.
    shapes["tolerance-witness"] = weighted(
        {
            (0, 1): {"bandwidth": 4.0, "delay": 4.0},
            (0, 2): {"bandwidth": 4.0 + 4e-12, "delay": 4.0 - 4e-12},
            (1, 2): {"bandwidth": 4.0 + 4e-12, "delay": 4.0 - 4e-12},
            (2, 3): {"bandwidth": 2.0, "delay": 3.0},
        }
    )

    # A negative link value: for the additive solvers an undirected negative link is a
    # negative cycle, so the batched delay kernel declines and the scalar path answers;
    # the bottleneck kernel has no arithmetic and keeps batching.
    shapes["negative-delay"] = weighted(
        {
            (0, 1): {"bandwidth": 5.0, "delay": 1.0},
            (1, 2): {"bandwidth": -1.0, "delay": -1.0},
            (0, 2): {"bandwidth": 3.0, "delay": 4.0},
            (2, 3): {"bandwidth": 2.0, "delay": 1.0},
            (1, 3): {"bandwidth": 4.0, "delay": 2.0},
        }
    )
    return shapes


#: (shape, metric name) pairs the batched kernels decline, leaving them to the scalar path.
_SCALAR_ONLY = {("negative-delay", "delay")}


def _wide_networks():
    """Name → Network for shapes wide enough to cross the batched kernels' inner limits.

    ``hub-of-70`` is a hub with 70 spokes, each spoke linked to the four next ones on a
    ring and to one outer-ring node, plus a five-node island of near-tie weights under
    the highest identifiers.  The hub's first-hop bits 64-69 need a second ``uint64``
    mask lane in both kernels.  The hub's pair bound alone exceeds the concave kernel's
    chunk budget, so the owners span several chunks with different largest degrees, and
    the island's near-tie target is decided in the last chunk.  Small integer weights
    make wide tie sets, across both lanes, the rule.
    """
    from repro.topology.network import Network

    rng = random.Random(70)

    def weights():
        return {"bandwidth": float(rng.randint(1, 3)), "delay": float(rng.randint(1, 3))}

    links = {}
    for spoke in range(1, 71):
        links[(0, spoke)] = weights()
        for step in (1, 2, 3, 4):
            other = (spoke - 1 + step) % 70 + 1
            links[(min(spoke, other), max(spoke, other))] = weights()
        links[(spoke, 100 + spoke)] = weights()
        links[(100 + spoke, 100 + spoke % 70 + 1)] = weights()
    links.update(
        {
            (300, 301): {"bandwidth": 5.0, "delay": 2.0},
            (300, 302): {"bandwidth": 5.0 + 1e-11, "delay": 2.0 + 1e-12},
            (301, 303): {"bandwidth": 5.0, "delay": 2.0},
            (302, 303): {"bandwidth": 5.0 + 1e-11, "delay": 2.0},
            (303, 304): {"bandwidth": 1.0, "delay": 1.0},
        }
    )
    return {"hub-of-70": Network.from_links(links)}


@st.composite
def tie_heavy_networks(draw):
    """A drawn unit-disk deployment of 1-40 nodes whose weights tie all the time.

    Weights are small integers, so equal path values (and multi-element first-hop sets)
    are the rule; now and then one is nudged by less than ``rel_tol``, a near-tie that
    ``Metric.values_equal`` calls equal while the floats differ.
    """
    from repro.topology.network import Network
    from repro.topology.unit_disk import unit_disk_links

    count = draw(st.integers(min_value=1, max_value=40))
    coordinate = st.integers(min_value=0, max_value=100)
    positions = {
        node: (float(draw(coordinate)), float(draw(coordinate))) for node in range(count)
    }
    radius = float(draw(st.integers(min_value=12, max_value=25)))
    weight = st.integers(min_value=1, max_value=4)
    nudge = st.sampled_from((0.0, 0.0, 0.0, 0.0, 1e-12, 3e-12))
    network = Network()
    for node, position in positions.items():
        network.add_node(node, position)
    for u, v in sorted(unit_disk_links(positions, radius)):
        network.add_link(
            u,
            v,
            bandwidth=float(draw(weight)) * (1.0 + draw(nudge)),
            delay=float(draw(weight)) * (1.0 + draw(nudge)),
        )
    return network


def _assert_both_paths_agree(network, label, metrics=(BANDWIDTH, DELAY, COMPOSITE, ADDITIVE_COMPOSITE)):
    """Scalar per-view selection == batched shared-CSR selection on ``network``, for
    every registered selector under ``metrics`` (bandwidth, delay and both composites).

    The reference is ``explain`` on the scalar views.  ``select_all``'s untraced results
    on the batched views must equal it apart from the trace, and ``explain`` on freshly
    primed views must equal it trace included.
    """
    from dataclasses import replace

    from repro.core.selection import available_selectors
    from repro.localview.networkgraph import NetworkGraph

    for metric in metrics:
        scalar_views = LocalView.all_from_network(network)
        ng = NetworkGraph.from_network(network)
        batched_views = LocalView.all_from_network(network, network_graph=ng)
        for name in available_selectors():
            selector = make_selector(name)
            scalar = {node: selector.explain(view, metric) for node, view in scalar_views.items()}
            batched = selector.select_all(network, metric, views=batched_views)
            primed_views = LocalView.all_from_network(network, network_graph=ng)
            selector.prime(list(primed_views.values()), metric)
            assert batched.keys() == scalar.keys() == primed_views.keys(), (label, metric.name, name)
            for node, view in primed_views.items():
                where = (label, metric.name, name, node)
                assert replace(batched[node], decisions=scalar[node].decisions) == scalar[node], where
                assert selector.explain(view, metric) == scalar[node], where


class TestDegenerateTopologiesScalarVsBatched:
    @pytest.mark.parametrize("shape", sorted(_degenerate_networks()))
    def test_every_selector_and_metric_agrees_on_both_paths(self, shape):
        """Scalar per-view selection == batched shared-CSR selection on each degenerate
        network, for every registered selector and every metric family."""
        _assert_both_paths_agree(_degenerate_networks()[shape], shape)

    @pytest.mark.parametrize("shape", sorted(_wide_networks()))
    def test_every_selector_agrees_on_both_paths_on_wide_windows(self, shape):
        """The same agreement on windows wide enough for several concave chunks and two
        mask lanes, whose near-tie row the scalar scan decides.  The mixed composite is
        left out: it never batches, and its per-target scalar solves alone take about
        45 s on this shape, while the additive composite still runs every selector on
        masks wider than 64 bits through the scalar encoding."""
        metrics = (BANDWIDTH, DELAY, ADDITIVE_COMPOSITE)
        _assert_both_paths_agree(_wide_networks()[shape], shape, metrics)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(network=tie_heavy_networks())
    def test_every_selector_and_metric_agrees_on_generated_networks(self, network):
        """The same agreement on drawn networks: sizes 1-40, ties and near-ties."""
        _assert_both_paths_agree(network, repr(network))

    @pytest.mark.parametrize("shape", sorted(_degenerate_networks()) + sorted(_wide_networks()))
    def test_first_hop_kernels_agree_on_degenerate_windows(self, shape):
        """The batched kernels themselves (not just selection built on them) reproduce
        the scalar first-hop sets on every degenerate window, including empty ones, and
        on windows wide enough for several chunks and mask lanes."""
        from repro.localview.batched import batched_all_first_hops
        from repro.localview.networkgraph import NetworkGraph

        network = {**_degenerate_networks(), **_wide_networks()}[shape]
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        for metric in (BANDWIDTH, DELAY):
            batch = batched_all_first_hops(ng, list(views.values()), metric)
            if (shape, metric.name) in _SCALAR_ONLY:
                assert batch is None, (shape, metric.name)
                continue
            assert batch is not None
            for owner, view in views.items():
                fresh = LocalView.from_network(network, owner)
                decoded = batch[owner].first_hop_results()
                assert decoded == all_first_hops(fresh, metric), (shape, metric.name, owner)
                assert list(decoded) == fresh.known_targets(), (shape, metric.name, owner)

    def test_wide_network_crosses_chunks_and_lanes(self, monkeypatch):
        """``hub-of-70`` really exercises what it is meant to: at least three concave
        chunks with different largest degrees, the near-tie owner outside the first
        chunk, and one-hop sets wider than a single mask lane."""
        from repro.localview import batched
        from repro.localview.networkgraph import NetworkGraph

        network = _wide_networks()["hub-of-70"]
        ng = NetworkGraph.from_network(network)
        views = list(LocalView.all_from_network(network, network_graph=ng).values())
        chunks = []
        solve_chunk = batched._bottleneck_chunk

        def spy(ng, views, g, *rest):
            largest = max(len(view.one_hop) for view in views)
            chunks.append(([view.owner for view in views], largest))
            return solve_chunk(ng, views, g, *rest)

        monkeypatch.setattr(batched, "_bottleneck_chunk", spy)
        assert batched.batched_all_first_hops(ng, views, BANDWIDTH) is not None
        assert len(chunks) >= 3
        assert len({largest for _owners, largest in chunks}) >= 2
        assert 300 not in chunks[0][0]
        assert max(len(view.one_hop) for view in views) > 64

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_nan_and_minus_inf_links_leave_every_view_to_the_scalar_path(self, value):
        """NaN compares unlike anything the scalar scans expect, and ``-inf`` is the
        bottleneck kernel's unreachable sentinel (and negative for delay), so neither
        kernel batches them; first-hop sets and selections then match the scalar path.
        NaN best values never compare equal, so sets are compared, not whole results."""
        from repro.core.selection import available_selectors
        from repro.localview.batched import batched_all_first_hops
        from repro.localview.networkgraph import NetworkGraph
        from repro.topology.network import Network

        network = Network.from_links(
            {
                (0, 1): {"bandwidth": 5.0, "delay": 1.0},
                (1, 2): {"bandwidth": value, "delay": value},
                (0, 2): {"bandwidth": 3.0, "delay": 4.0},
                (2, 3): {"bandwidth": 2.0, "delay": 1.0},
                (1, 3): {"bandwidth": 4.0, "delay": 2.0},
            }
        )
        for metric in (BANDWIDTH, DELAY):
            ng = NetworkGraph.from_network(network)
            views = LocalView.all_from_network(network, network_graph=ng)
            assert batched_all_first_hops(ng, list(views.values()), metric) is None
            scalar_views = LocalView.all_from_network(network)
            for owner, view in views.items():
                batched = all_first_hops(view, metric)
                scalar = all_first_hops(scalar_views[owner], metric)
                assert {t: r.first_hops for t, r in batched.items()} == {
                    t: r.first_hops for t, r in scalar.items()
                }, (metric.name, owner)
            for name in available_selectors():
                selector = make_selector(name)
                batched = selector.select_all(network, metric, views=views)
                for owner, view in scalar_views.items():
                    assert batched[owner].selected == selector.select(view, metric).selected, (
                        metric.name,
                        name,
                        owner,
                    )


# --------------------------------------------------------------------------- link-state
# Link-state routes against the networkx label-setting loop, run on the network's own
# graph restricted to the links the source knows.  That edge-subgraph view scans each
# node's neighbors in the network's adjacency order, as the router does, so the two must
# return identical routes, paths included.


def _oracle_link_state_route(network, selections, source, destination, metric):
    """The link-state route of ``source`` to ``destination``, from the known-link rule:
    a link is known when either endpoint advertised the other, or when an endpoint is a
    one-hop neighbor of ``source``."""
    one_hop = network.neighbors(source)
    advertised = {
        frozenset((node, relay))
        for node, selection in selections.items()
        for relay in selection.selected
    }
    graph = nx_graph(network.adjacency)
    known = [
        (u, v)
        for u, v in graph.edges
        if u in one_hop or v in one_hop or frozenset((u, v)) in advertised
    ]
    route = best_path_nx(graph.edge_subgraph(known), source, destination, metric)
    if not route.reachable or not metric.is_usable(route.value):
        return RouteOutcome(source, destination, (source,), False, metric.worst, "no-route")
    return RouteOutcome(source, destination, route.path, True, route.value)


def _assert_link_state_routes_match_oracle(network, metric, label):
    """Every paper selector's routes from three sources to every destination."""
    views = LocalView.all_from_network(network)
    for name in PAPER_SELECTORS:
        selections = make_selector(name).select_all(network, metric, views=views)
        router = HopByHopRouter(network, AdvertisedTopologyBuilder(network).build(selections), metric)
        for source in _owners(network):
            for destination in network.nodes():
                if destination == source:
                    continue
                assert router.link_state_route(source, destination) == (
                    _oracle_link_state_route(network, selections, source, destination, metric)
                ), (label, metric.name, name, source, destination)


class TestLinkStateRoutesMatchNetworkxOracle:
    @pytest.mark.parametrize(
        "metric", (BANDWIDTH, DELAY, COMPOSITE), ids=("bandwidth", "delay", "composite")
    )
    @pytest.mark.parametrize("seed", range(0, TOPOLOGY_COUNT, 5))
    def test_unit_disk_corpus(self, seed, metric):
        _assert_link_state_routes_match_oracle(unit_disk_network(seed), metric, seed)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(network=tie_heavy_networks())
    def test_generated_tie_heavy_networks(self, network):
        """The same on drawn networks of 1-40 nodes where path values tie all the time."""
        for metric in (BANDWIDTH, DELAY):
            _assert_link_state_routes_match_oracle(network, metric, repr(network))
