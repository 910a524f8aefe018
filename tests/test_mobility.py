"""Tests for the mobility/churn subsystem: models, dynamic driver, measures, spec wiring.

The load-bearing guarantees, in the style of the differential suites that lock down the
other fast paths:

* **Incremental == regeneration.**  A :class:`DynamicTopology` advanced incrementally
  (diffed links, rebuilt-only-affected views, sanctioned ``update_link`` weight updates)
  is bit-identical -- networks, positions, link attributes, every view's structure and
  edge data -- to the naive baseline that regenerates the network and drops all views
  every step, for all three models.
* **Determinism.**  Trajectories are pure functions of ``(model, seed, run_index)``; a
  dynamic sweep aggregates bit-identically serial and under ``REPRO_WORKERS``.
* **Static anchor.**  A zero-velocity model reproduces the static ``fixed-count``
  generator exactly, at time zero and after every step.
* **Containment.**  Mobile nodes never leave the deployment field.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.engine import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.mobility import (
    DynamicTopology,
    GaussMarkovGenerator,
    LinkChurnGenerator,
    RandomWaypointGenerator,
)
from repro.registry import PRESETS
from repro.topology.generators import FieldSpec, FixedCountNetworkGenerator

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
        {frozenset(edge): dict(view.graph.edges[edge]) for edge in view.graph.edges},
    )


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
    def test_networks_views_and_deltas_match_the_rebuild_baseline(
        self, model_name, cls, kwargs, seed
    ):
        generator = cls(
            field=FIELD, node_count=35, seed=seed, weight_assigners=_assigners(), **kwargs
        )
        incremental = generator.dynamic()
        rebuild = generator.dynamic()
        rebuild.incremental = False
        incremental.views()  # materialize so the incremental maintenance path runs
        incremental_network, rebuild_network = incremental.network, rebuild.network
        for _ in range(5):
            first = incremental.advance()
            second = rebuild.advance()
            # Live-ownership: both modes mutate the same Network object in place.
            assert incremental.network is incremental_network
            assert rebuild.network is rebuild_network
            assert (first.added, first.removed, first.reweighted) == (
                second.added,
                second.removed,
                second.reweighted,
            )
            assert _network_key(incremental.network) == _network_key(rebuild.network)
            incremental_views = incremental.views()
            rebuild_views = rebuild.views()
            assert set(incremental_views) == set(rebuild_views)
            for owner in incremental_views:
                assert _view_key(incremental_views[owner]) == _view_key(rebuild_views[owner])

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

    def test_views_mapping_stays_live_across_the_wholesale_rebuild(self):
        """views() hands out one live mapping: even when a step crosses the wholesale
        rebuild threshold, a caller-held dict reflects the post-step topology."""
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
            # (update_link detaches reweight-only viewers; the driver re-attaches them).
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

    def test_reweighted_links_refresh_the_advertised_working_graph(self):
        """A link that stays advertised while the churn model re-measures it must not keep
        its stale weight copy in the incremental builder's working graph."""
        from repro.core.selection import make_selector
        from repro.routing.advertised import AdvertisedTopologyBuilder

        metric = BandwidthMetric()
        generator = LinkChurnGenerator(
            field=FIELD,
            node_count=25,
            seed=6,
            weight_assigners=_assigners(),
            reweight_probability=0.6,
            outage_probability=0.0,
        )
        dynamic = generator.dynamic()
        builder = AdvertisedTopologyBuilder(dynamic.network)
        selector = make_selector("fnbp")

        def advertise():
            views = dynamic.views()
            return builder.build(
                {node: selector.select(view, metric).selected for node, view in views.items()}
            )

        advertised = advertise()
        for _ in range(3):
            delta = dynamic.advance()
            builder.refresh_attributes(delta.reweighted)
            advertised = advertise()
            for u, v in advertised.graph.edges:
                assert advertised.graph.edges[u, v] == dynamic.network.link_attributes(u, v)

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
