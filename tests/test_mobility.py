"""Tests for the mobility/churn subsystem: models, dynamic driver, measures, spec wiring.

The load-bearing guarantees, in the style of the differential suites that lock down the
other fast paths:

* **Incremental == regeneration.**  A :class:`DynamicTopology` advanced incrementally
  (diffed links, rebuilt-only-affected views, reweighted links patched into the shared CSR)
  is bit-identical -- networks, positions, link attributes, every view's structure and
  edge data, each step's added/removed/reweighted links -- to a fresh network and fresh
  views regenerated from the step's world state alone, for all three models.
* **Determinism.**  Trajectories are pure functions of ``(model, seed, run_index)``; a
  dynamic sweep aggregates bit-identically serial and under ``REPRO_WORKERS``.
* **Static anchor.**  A zero-velocity model reproduces the static ``fixed-count``
  generator exactly, at time zero and after every step.
* **Containment.**  Mobile nodes never leave the deployment field.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.engine import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.mobility import (
    DynamicTopology,
    GaussMarkovGenerator,
    LinkChurnGenerator,
    RandomWaypointGenerator,
)
from repro.mobility.models import TrajectoryStepper, WorldState
from repro.localview import LocalView, NetworkGraph
from repro.registry import PRESETS
from repro.topology.generators import FieldSpec, FixedCountNetworkGenerator
from repro.topology.network import Network
from repro.topology.unit_disk import unit_disk_links

FIELD = FieldSpec(width=400.0, height=400.0, radius=100.0)


def _assigners(seed: int = 9):
    return (
        UniformWeightAssigner(metric=BandwidthMetric(), seed=seed),
        UniformWeightAssigner(metric=DelayMetric(), seed=seed),
    )


def _network_key(network):
    """Everything observable about a network: nodes, positions, links, attributes."""
    return (
        network.nodes(),
        {node: network.position(node) for node in network.nodes()},
        {edge: network.link_attributes(*edge) for edge in network.links()},
    )


def _view_key(view):
    return (
        view.owner,
        view.one_hop,
        view.two_hop,
        _graph_key(view.links),
    )


def _regenerate(world, radius, assigners):
    """A fresh network built from one world state alone, and its link set.

    Nodes come from ``positions``, links are the unit-disk links minus ``down_links`` in
    sorted order, and each link carries the assigners' draws plus the cumulative
    ``weight_overrides``: nothing is carried over from earlier steps.
    """
    network = Network()
    for node, position in world.positions.items():
        network.add_node(node, position)
    links = sorted(set(unit_disk_links(world.positions, radius)) - world.down_links)
    for edge in links:
        weights = {
            assigner.metric.name: assigner.assign([edge], world.positions)[edge]
            for assigner in assigners
        }
        weights.update(world.weight_overrides.get(edge, {}))
        network.add_link(*edge, **weights)
    return network, set(links)


class _ScriptedStepper(TrajectoryStepper):
    """Hands out a fixed sequence of world states, one per step."""

    def __init__(self, states):
        self._states = iter(states)

    def step(self, dt):
        return next(self._states)


#: Three nodes in a row, 60 apart under ``FIELD``'s radius 100: links (0, 1) and (1, 2).
ROW = {0: (0.0, 0.0), 1: (60.0, 0.0), 2: (120.0, 0.0)}


def _scripted(states, assigners):
    """A driver that starts from ``ROW``'s regeneration and then replays ``states``."""
    network, _ = _regenerate(WorldState(ROW), FIELD.radius, assigners)
    dynamic = DynamicTopology(network, _ScriptedStepper(states), FIELD.radius, assigners)
    dynamic.views()  # materialize so the view-maintenance path runs
    return dynamic


def _assert_regenerates(dynamic, world, assigners):
    fresh, _ = _regenerate(world, FIELD.radius, assigners)
    assert _network_key(dynamic.network) == _network_key(fresh)
    expected = LocalView.all_from_network(fresh)
    assert {owner: _view_key(view) for owner, view in dynamic.views().items()} == {
        owner: _view_key(view) for owner, view in expected.items()
    }


ALL_MODELS = [
    ("rwp", RandomWaypointGenerator, {}),
    ("gauss-markov", GaussMarkovGenerator, {}),
    ("churn", LinkChurnGenerator, {}),
]


class TestModelValidation:
    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            RandomWaypointGenerator(node_count=-1)
        with pytest.raises(ValueError):
            RandomWaypointGenerator(speed_low=5.0, speed_high=1.0)
        with pytest.raises(ValueError):
            RandomWaypointGenerator(pause_high=-1.0)
        with pytest.raises(ValueError):
            GaussMarkovGenerator(alpha=1.5)
        with pytest.raises(ValueError):
            GaussMarkovGenerator(mean_speed=-1.0)
        with pytest.raises(ValueError):
            LinkChurnGenerator(reweight_probability=2.0)
        with pytest.raises(ValueError):
            RandomWaypointGenerator(node_count=10).dynamic(step_interval=0.0)

    def test_field_defaults_to_the_paper_field(self):
        generator = RandomWaypointGenerator(node_count=3, seed=0)
        assert generator.field.width == 1000.0 and generator.field.radius == 100.0
        assert len(generator.generate()) == 3


class TestTrajectoriesStayDeterministicAndContained:
    @pytest.mark.parametrize("model_name,cls,kwargs", ALL_MODELS)
    def test_equal_seeds_give_bit_identical_trajectories(self, model_name, cls, kwargs):
        generators = [
            cls(field=FIELD, node_count=25, seed=3, weight_assigners=_assigners(), **kwargs)
            for _ in range(2)
        ]
        dynamics = [generator.dynamic(run_index=1) for generator in generators]
        assert _network_key(dynamics[0].network) == _network_key(dynamics[1].network)
        for _ in range(4):
            deltas = [dynamic.advance() for dynamic in dynamics]
            assert deltas[0] == deltas[1]
            assert _network_key(dynamics[0].network) == _network_key(dynamics[1].network)

    def test_different_runs_give_different_trajectories(self):
        generator = RandomWaypointGenerator(field=FIELD, node_count=25, seed=3)
        first, second = generator.dynamic(run_index=0), generator.dynamic(run_index=1)
        for _ in range(2):
            first.advance()
            second.advance()
        assert _network_key(first.network) != _network_key(second.network)

    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (RandomWaypointGenerator, dict(speed_low=20.0, speed_high=60.0, pause_high=0.5)),
            (GaussMarkovGenerator, dict(mean_speed=40.0, speed_std=20.0, alpha=0.6)),
        ],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_nodes_never_leave_the_field(self, cls, kwargs, seed):
        generator = cls(field=FIELD, node_count=20, seed=seed, **kwargs)
        dynamic = generator.dynamic()
        for _ in range(30):
            dynamic.advance()
            for node in dynamic.network.nodes():
                x, y = dynamic.network.position(node)
                assert 0.0 <= x <= FIELD.width
                assert 0.0 <= y <= FIELD.height

    @pytest.mark.parametrize(
        "cls,kwargs",
        [
            (RandomWaypointGenerator, dict(speed_low=0.0, speed_high=0.0, pause_high=0.0)),
            (GaussMarkovGenerator, dict(mean_speed=0.0, speed_std=0.0)),
            (LinkChurnGenerator, dict(reweight_probability=0.0, outage_probability=0.0)),
        ],
    )
    def test_zero_velocity_model_reproduces_the_static_generator_exactly(self, cls, kwargs):
        static = FixedCountNetworkGenerator(
            field=FIELD,
            node_count=30,
            seed=5,
            weight_assigners=_assigners(),
            restrict_to_largest_component=False,
        )
        generator = cls(field=FIELD, node_count=30, seed=5, weight_assigners=_assigners(), **kwargs)
        for run_index in (0, 2):
            reference = _network_key(static.generate(run_index))
            dynamic = generator.dynamic(run_index)
            assert _network_key(dynamic.network) == reference
            for _ in range(5):
                delta = dynamic.advance()
                assert delta.link_churn == 0 and not delta.reweighted
                assert _network_key(dynamic.network) == reference


class TestIncrementalStepEqualsPerStepRegeneration:
    @pytest.mark.parametrize("model_name,cls,kwargs", ALL_MODELS)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_networks_views_and_deltas_match_a_regeneration(self, model_name, cls, kwargs, seed):
        """Every step equals an oracle that regenerates the network and its views from a
        twin stepper's world state, with no state carried between steps."""
        assigners = _assigners()
        generator = cls(field=FIELD, node_count=35, seed=seed, weight_assigners=assigners, **kwargs)
        dynamic = generator.dynamic()
        twin = generator._stepper(generator.generate(0), 0)
        network = dynamic.network
        dynamic.views()  # materialize so the view-maintenance path runs
        previous = set(network.links())
        reweights = 0
        for _ in range(5):
            world = twin.step(dynamic.step_interval)
            delta = dynamic.advance()
            fresh, links = _regenerate(world, FIELD.radius, assigners)
            assert dynamic.network is network  # mutated in place, never swapped
            assert _network_key(network) == _network_key(fresh)
            assert delta.added == tuple(sorted(links - previous))
            assert delta.removed == tuple(sorted(previous - links))
            assert delta.reweighted == tuple(
                sorted(edge for edge in world.changed_weights if edge in links & previous)
            )
            maintained = dynamic.views()
            expected = LocalView.all_from_network(fresh)
            assert set(maintained) == set(expected)
            for owner, view in maintained.items():
                assert _view_key(view) == _view_key(expected[owner]), owner
                assert view.network_graph() is dynamic.network_graph(), owner
            reweights += len(delta.reweighted)
            previous = links
        if model_name == "churn":
            assert reweights  # the patch path really ran

    def test_a_link_back_from_an_outage_carries_its_last_re_measured_weight(self):
        """Why a world state carries the cumulative override table: a link that returns
        is added afresh, and its re-measured weight must win over the assigner's draw."""
        assigners = _assigners()
        name = assigners[0].metric.name
        link = (0, 1)
        overrides = {link: {name: 123.0}}
        states = [
            WorldState(ROW, weight_overrides=overrides, changed_weights=frozenset({link})),
            WorldState(ROW, down_links=frozenset({link}), weight_overrides=overrides),
            WorldState(ROW, weight_overrides=overrides),
        ]
        dynamic = _scripted(states, assigners)
        drawn = dynamic.network.link_attributes(*link)
        assert drawn[name] != 123.0
        reweigh, outage, back = [dynamic.advance() for _ in states]
        assert (reweigh.added, reweigh.removed, reweigh.reweighted) == ((), (), (link,))
        assert (outage.added, outage.removed, outage.reweighted) == ((), (link,), ())
        assert (back.added, back.removed, back.reweighted) == ((link,), (), ())
        assert dynamic.network.link_attributes(*link) == {**drawn, name: 123.0}
        assert back.dirty == {0, 1, 2}
        _assert_regenerates(dynamic, states[-1], assigners)

    def test_a_re_measured_link_that_flips_this_step_is_not_reported_as_reweighted(self):
        """Only a link present before and after the step can be reweighted; one that
        goes down or comes back while its weight changes is removed or added."""
        assigners = _assigners()
        name = assigners[0].metric.name
        link = (1, 2)
        states = [
            WorldState(
                ROW,
                down_links=frozenset({link}),
                weight_overrides={link: {name: 7.0}},
                changed_weights=frozenset({link}),
            ),
            WorldState(ROW, weight_overrides={link: {name: 9.0}}, changed_weights=frozenset({link})),
        ]
        dynamic = _scripted(states, assigners)
        down, back = [dynamic.advance() for _ in states]
        assert (down.added, down.removed, down.reweighted) == ((), (link,), ())
        assert (back.added, back.removed, back.reweighted) == ((link,), (), ())
        assert dynamic.network.link_attributes(*link)[name] == 9.0
        _assert_regenerates(dynamic, states[-1], assigners)

    def test_untouched_views_keep_their_caches_across_a_step(self):
        """The point of the incremental path: a step that does not touch a node's
        neighborhood leaves its per-metric caches warm."""
        generator = LinkChurnGenerator(
            field=FIELD,
            node_count=35,
            seed=1,
            weight_assigners=_assigners(),
            reweight_probability=0.05,
            outage_probability=0.0,
        )
        dynamic = generator.dynamic()
        metric = BandwidthMetric()
        views = dynamic.views()
        for view in views.values():
            view.compact_graph(metric)
        delta = dynamic.advance()
        assert delta.reweighted  # the step really did change something
        touched = set()
        for u, v in delta.reweighted:
            touched |= {u, v}
            touched |= dynamic.network.neighbors(u) | dynamic.network.neighbors(v)
        untouched = set(views) - touched
        assert untouched, "expected at least one node far from every reweighted link"
        for owner in untouched:
            assert dynamic.views()[owner]._compact, f"cache of untouched view {owner} was dropped"
        for u, v in delta.reweighted:
            assert not dynamic.views()[u]._compact, "affected view kept a stale cache"

    def test_views_mapping_stays_live_across_high_churn_steps(self):
        """views() hands out one live mapping: even when a step touches most of the
        network, a caller-held dict reflects the post-step topology."""
        generator = RandomWaypointGenerator(
            field=FIELD, node_count=30, seed=3, weight_assigners=_assigners(),
            speed_low=30.0, speed_high=60.0, pause_high=0.0,
        )
        dynamic = generator.dynamic()
        held = dynamic.views()
        for _ in range(3):
            delta = dynamic.advance()
            assert held is dynamic.views()
            if delta.link_churn:
                u, v = (delta.added or delta.removed)[0]
                assert held[u].has_link(u, v) == dynamic.network.has_link(u, v)
        for owner, view in held.items():
            assert view.one_hop == frozenset(dynamic.network.neighbors(owner))

    @pytest.mark.parametrize("model_name,cls,kwargs", ALL_MODELS)
    def test_maintained_network_graph_equals_a_fresh_build_every_step(
        self, model_name, cls, kwargs
    ):
        """The driver-maintained shared CSR (structural steps rebuild it, weight-only
        steps patch its arrays in place) is array-for-array bit-identical to a
        from-scratch ``NetworkGraph.from_network`` of the current network, every step."""
        from repro.localview import NetworkGraph

        generator = cls(
            field=FIELD, node_count=35, seed=5, weight_assigners=_assigners(), **kwargs
        )
        dynamic = generator.dynamic()
        metrics = (BandwidthMetric(), DelayMetric())
        dynamic.views()  # materialize views + shared CSR so maintenance runs
        maintained = dynamic.network_graph()
        for metric in metrics:
            maintained.edge_values(metric)  # materialize so patches have arrays to hit
        for _ in range(5):
            dynamic.advance()
            assert dynamic.network_graph() is maintained  # identity is preserved
            fresh = NetworkGraph.from_network(dynamic.network)
            assert maintained.nodes == fresh.nodes
            for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
                assert (getattr(maintained, name) == getattr(fresh, name)).all(), name
            for metric in metrics:
                assert (
                    maintained.edge_values(metric) == fresh.edge_values(metric)
                ).all(), metric.name
                assert (
                    maintained.slot_values(metric) == fresh.slot_values(metric)
                ).all(), metric.name
            # The views handed out after the step are attached to the maintained CSR
            # (untouched views move onto the rebuilt rows; reweight viewers stay attached).
            for owner, view in dynamic.views().items():
                assert view.network_graph() is maintained, owner

    def test_churn_model_perturbs_weights_without_moving_nodes(self):
        generator = LinkChurnGenerator(
            field=FIELD,
            node_count=30,
            seed=2,
            weight_assigners=_assigners(),
            reweight_probability=0.5,
            outage_probability=0.3,
        )
        dynamic = generator.dynamic()
        initial_positions = {node: dynamic.network.position(node) for node in dynamic.network.nodes()}
        base_links = set(dynamic.network.links())
        saw_reweight = saw_outage = False
        for _ in range(5):
            delta = dynamic.advance()
            saw_reweight = saw_reweight or bool(delta.reweighted)
            saw_outage = saw_outage or bool(delta.removed)
            assert {node: dynamic.network.position(node) for node in dynamic.network.nodes()} == initial_positions
            assert set(dynamic.network.links()) <= base_links  # outages only suppress links
        assert saw_reweight and saw_outage


METRICS = (BandwidthMetric(), DelayMetric())
#: Small and dense (mean degree ~0.5 per node), so a few nodes already give two-hop views.
CHURN_FIELD = FieldSpec(width=250.0, height=250.0, radius=100.0)


@st.composite
def churning_topologies(draw):
    """A link-churn or fast random-waypoint generator with drawn seed, size and rates."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    common = dict(
        field=CHURN_FIELD,
        node_count=draw(st.integers(min_value=6, max_value=22)),
        seed=seed,
        weight_assigners=_assigners(seed),
    )
    if draw(st.booleans()):
        # No outages makes weight-only steps (the patch path) common.
        return LinkChurnGenerator(
            reweight_probability=draw(st.sampled_from((0.3, 0.6, 0.9))),
            outage_probability=draw(st.sampled_from((0.0, 0.0, 0.2, 0.5))),
            **common,
        )
    return RandomWaypointGenerator(
        speed_low=20.0, speed_high=draw(st.sampled_from((40.0, 80.0))), pause_high=0.0, **common
    )


def _answers(view):
    """Everything a selector can ask a view, as comparable values."""
    known = sorted(view.nodes)
    coverage = view.coverage()
    return (
        view.one_hop,
        view.two_hop,
        {node: view.neighbors_of(node) for node in known},
        {node: view.common_relays(node) for node in known},
        {metric.name: dict(view.direct_link_values(metric)) for metric in METRICS},
        (coverage.hops, coverage.two_hops, coverage.covers, coverage.relays),
    )


def _graph_key(links):
    return {frozenset((u, v)): dict(data) for u, row in links.items() for v, data in row.items()}


def _assert_same_csr(maintained, fresh):
    assert maintained.nodes == fresh.nodes
    for name in ("indptr", "indices", "slot_edge", "edge_u", "edge_v"):
        assert (getattr(maintained, name) == getattr(fresh, name)).all(), name
    # The neighbour rows and the attribute snapshot, iteration order included.
    assert [list(row) for row in maintained.rows.values()] == [
        list(row) for row in fresh.rows.values()
    ]
    assert [list(row.items()) for row in maintained.adjacency.values()] == [
        list(row.items()) for row in fresh.adjacency.values()
    ]
    for metric in METRICS:
        assert (maintained.edge_values(metric) == fresh.edge_values(metric)).all(), metric.name
        assert (maintained.slot_values(metric) == fresh.slot_values(metric)).all(), metric.name
        assert maintained.value_rows(metric) == fresh.value_rows(metric), metric.name


class TestMaintainedViewsMatchFreshBuilds:
    """The stateful contract of the views ``DynamicTopology`` maintains.

    After every random add/remove/reweight step, the maintained shared CSR equals a fresh
    build array for array, and every maintained view answers exactly like a view built
    from the current network, its coverage record included.  Before each step every view
    caches its direct values and its coverage record and every odd owner builds its
    graph, so a cache or graph that outlives a change shows up; even owners stay lazy, so
    a view the step replaced builds its graph afterwards and must build it from the state
    it describes, not from the live network.  A view the step neither replaced nor
    dirtied keeps its record (moved onto rebuilt rows, its neighbourhood is unchanged).
    """

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(generator=churning_topologies(), steps=st.integers(min_value=2, max_value=5))
    def test_every_step_matches_a_fresh_build(self, generator, steps):
        dynamic = generator.dynamic()
        views = dynamic.views()
        maintained = dynamic.network_graph()
        for metric in METRICS:
            maintained.value_rows(metric)  # materialized, so patches have rows to hit
        for _ in range(steps):
            for owner, view in views.items():
                for metric in METRICS:
                    view.direct_link_values(metric)
                if owner % 2:
                    view.links
            records = {owner: view.coverage() for owner, view in views.items()}
            held = dict(views)
            before = {owner: LocalView.from_network(dynamic.network, owner) for owner in views}
            delta = dynamic.advance()
            network = dynamic.network
            _assert_same_csr(maintained, NetworkGraph.from_network(network))
            for owner, view in views.items():
                fresh = LocalView.from_network(network, owner)
                assert view.network_graph() is maintained, owner
                if view is held[owner] and owner not in delta.dirty:
                    assert view.coverage() is records[owner], owner
                assert _answers(view) == _answers(fresh), owner
                if owner % 2:
                    assert _graph_key(view.links) == _graph_key(fresh.links), owner
            for owner, view in held.items():
                if views[owner] is view:
                    continue  # kept: its neighbourhood did not change
                assert delta.link_churn, "only a structural step replaces views"
                assert view.network_graph() is None, owner
                assert _answers(view) == _answers(before[owner]), owner
                assert _graph_key(view.links) == _graph_key(before[owner].links), owner
        for owner, view in views.items():
            fresh = LocalView.from_network(dynamic.network, owner)
            assert _graph_key(view.links) == _graph_key(fresh.links), owner


class TestDynamicSweepsThroughTheEngine:
    def _spec(self, **overrides) -> ExperimentSpec:
        base = ExperimentSpec(
            experiment_id="mobility-test",
            title="Mobility sweep test",
            measure="ans-churn",
            metric="bandwidth",
            selectors=("fnbp", "topology-filtering"),
            topology="rwp",
            densities=(22.0,),
            runs=2,
            timesteps=3,
            field=FieldSpec(width=400.0, height=400.0, radius=100.0),
            seed=11,
        )
        return base.with_overrides(**overrides) if overrides else base

    @pytest.mark.parametrize("measure", ["ans-churn", "tc-overhead", "route-stability"])
    def test_serial_and_parallel_dynamic_sweeps_are_bit_identical(self, measure):
        spec = self._spec(measure=measure, pairs_per_run=3)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_density_points_carry_the_per_timestep_series(self):
        result = run_experiment(self._spec())
        for series in result.series.values():
            point = series.points[0]
            per_step = point.to_dict()["per_step_mean"]
            assert len(per_step) == 3  # one entry per timestep
            assert point.summary.count == 3 * 2  # timesteps x runs pooled

    def test_static_world_measures_no_churn_and_full_stability(self):
        """On a frozen topology the time-axis measures are exact: zero churn, zero TC
        re-advertisement, every first hop survives every step."""
        from repro.experiments.runner import Trial
        from repro.mobility.measures import _route_stability_trial, _selection_churn_trial

        spec = self._spec(pairs_per_run=3)
        generator = LinkChurnGenerator(
            field=spec.field,
            node_count=22,
            seed=4,
            weight_assigners=_assigners(),
            reweight_probability=0.0,
            outage_probability=0.0,
        )

        def fresh_trial() -> Trial:
            return Trial(
                spec=spec,
                metric=BandwidthMetric(),
                density=22.0,
                run_index=0,
                network=generator.generate(0),
                generator=generator,
            )

        churn_payload = _selection_churn_trial(fresh_trial())
        for per_step in churn_payload["churn"].values():
            assert per_step == [0.0] * spec.timesteps
        for per_step in churn_payload["tc"].values():
            assert per_step == [0.0] * spec.timesteps
        stability_payload = _route_stability_trial(fresh_trial())
        for per_step in stability_payload["stability"].values():
            assert per_step == [1.0] * spec.timesteps

    def test_dynamic_trial_reuses_the_trial_network(self):
        from repro.experiments.runner import build_trial

        spec = self._spec()
        trial = build_trial(spec, BandwidthMetric(), 22.0, 0)
        assert trial.dynamic_topology().network is trial.network
        assert trial.dynamic_topology() is trial.dynamic_topology()

    def test_position_dependent_assigners_are_rejected(self):
        from repro.metrics.assignment import DistanceProportionalAssigner

        generator = RandomWaypointGenerator(
            field=FIELD,
            node_count=10,
            seed=0,
            weight_assigners=(DistanceProportionalAssigner(metric=DelayMetric()),),
        )
        assert len(generator.generate()) == 10  # static snapshots remain fine
        with pytest.raises(ValueError, match="position-independent"):
            generator.dynamic()

    def test_link_state_routes_over_a_held_topology_read_the_current_weights(self):
        """Across re-measuring churn steps, every link-state route over a topology built
        before the step equals the route over one built from the current network (value
        and path), with no refresh step in between."""
        from itertools import permutations

        from repro.core.selection import make_selector
        from repro.routing import AdvertisedTopologyBuilder, HopByHopRouter

        generator = LinkChurnGenerator(
            field=FIELD,
            node_count=25,
            seed=6,
            weight_assigners=_assigners(),
            reweight_probability=0.6,
            outage_probability=0.0,
        )
        dynamic = generator.dynamic()
        network = dynamic.network
        pairs = list(permutations(network.nodes(), 2))
        selector = make_selector("fnbp")
        reweighted = 0
        for metric in (BandwidthMetric(), DelayMetric()):
            for _ in range(2):
                held = AdvertisedTopologyBuilder(network).build(
                    {node: selector.select(view, metric) for node, view in dynamic.views().items()}
                )
                held_router = HopByHopRouter(network, held, metric)
                reweighted += len(dynamic.advance().reweighted)
                current = HopByHopRouter(
                    network, AdvertisedTopologyBuilder(network).build(held.ans_sets), metric
                )
                for source, destination in pairs:
                    assert held_router.link_state_route(source, destination) == (
                        current.link_state_route(source, destination)
                    ), (metric.name, source, destination)
        assert reweighted  # the steps really re-measured links

    def test_missing_survival_samples_keep_per_step_series_aligned(self):
        """A step with no routes to judge contributes None, not a silent gap: per-step
        buckets stay index-aligned and the pooled summary counts only real samples."""
        from repro.mobility.measures import RouteStabilityMeasure

        spec = self._spec(measure="route-stability", timesteps=3)
        measure = RouteStabilityMeasure()
        state = measure.start(spec)
        measure.consume(state, 22.0, {"stability": {"fnbp": [1.0, None, 0.5]}})
        measure.consume(state, 22.0, {"stability": {"fnbp": [None, None, 1.0]}})
        point = measure.density_points(state, spec, 22.0)["fnbp"]
        assert point.to_dict()["per_step_mean"] == [1.0, None, 0.75]
        assert point.summary.count == 3  # the four Nones contributed nothing

    def test_dynamic_measures_reject_static_specs_fast(self):
        with pytest.raises(ValueError, match="timesteps"):
            run_experiment(self._spec(timesteps=0))
        # A static topology model fails in the measure's validate_spec probe, before any
        # trial (and in particular before any worker process) runs.
        with pytest.raises(ValueError, match="dynamic topology model"):
            run_experiment(self._spec(topology="poisson"), workers=2)

    def test_spec_round_trips_the_time_axis(self):
        spec = self._spec(timesteps=7, step_interval=0.5)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.timesteps == 7 and restored.step_interval == 0.5

    def test_invalid_time_axis_is_rejected(self):
        with pytest.raises(ValueError):
            self._spec(timesteps=-1)
        with pytest.raises(ValueError):
            self._spec(step_interval=0.0)

    def test_mobility_presets_are_valid_dynamic_specs(self):
        for name in ("mobility-churn", "mobility-stability"):
            spec = PRESETS.create(name).validate_names()
            assert spec.timesteps >= 1
            assert spec.topology == "rwp"
