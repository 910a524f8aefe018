"""Differential + property suite for dirty-set incremental selection across timesteps.

The load-bearing guarantees, in the style of the suites locking down every other fast path:

* **Cached == from-scratch.**  Selections served by the :class:`SelectionCache` of a
  dynamic trial (re-running the selector only at each step's ``StepDelta.dirty`` owners)
  are bit-identical -- full ``SelectionResult`` equality -- to running every registered
  selector's ``select`` from scratch on every node after every step (the built-ins record
  no decision trace under ``select``, so theirs is ``None`` on both sides; the traces are
  pinned by ``tests/test_selection_traces.py``), across seeded topologies of all
  three mobility models and all metric families (additive, concave, lexicographic
  composite), serial and under ``REPRO_WORKERS=2``.
* **The dirty set is exact.**  ``StepDelta.dirty`` equals the view neighborhood
  ``{u, v} ∪ N(u) ∪ N(v)`` unioned over the symmetric difference of the pre- and
  post-step link sets (over both adjacencies) plus the same neighborhood of every
  reweighted link -- no more, no less.
* **A frozen world is free.**  A zero-movement dynamic trial produces an empty dirty set
  after step 0, so a fully warm selection cache re-runs *nothing*.
"""

from __future__ import annotations

import json

import pytest
from test_filtering_kernel import counters

from repro.core.selection import SelectionCache, make_selector
from repro.experiments.engine import run_experiment
from repro.experiments.runner import Trial
from repro.experiments.spec import ExperimentSpec
from repro.localview.view import LocalView
from repro.metrics import (
    BandwidthMetric,
    DelayMetric,
    LexicographicMetric,
    UniformWeightAssigner,
)
from repro.mobility import (
    GaussMarkovGenerator,
    LinkChurnGenerator,
    RandomWaypointGenerator,
)
from repro.registry import SELECTORS
from repro.topology.generators import FieldSpec

FIELD = FieldSpec(width=400.0, height=400.0, radius=100.0)

#: One representative per metric family: additive, concave, and the non-prefix-optimal
#: lexicographic composite that forces the generic solver paths.
METRIC_FAMILIES = [
    ("delay", DelayMetric()),
    ("bandwidth", BandwidthMetric()),
    ("lex-composite", LexicographicMetric([DelayMetric(), BandwidthMetric()])),
]

MODELS = [
    ("rwp-clustered", RandomWaypointGenerator, dict(mobile_fraction=0.2, pause_high=0.5)),
    ("gauss-markov", GaussMarkovGenerator, {}),
    ("churn", LinkChurnGenerator, dict(reweight_probability=0.3, outage_probability=0.15)),
]


def _assigners(seed: int = 9):
    return (
        UniformWeightAssigner(metric=BandwidthMetric(), seed=seed),
        UniformWeightAssigner(metric=DelayMetric(), seed=seed),
    )


def _generator(cls, kwargs, seed: int, node_count: int = 30):
    return cls(
        field=FIELD, node_count=node_count, seed=seed, weight_assigners=_assigners(), **kwargs
    )


def _adjacency_snapshot(network):
    return {node: set(network.neighbors(node)) for node in network.nodes()}


def _expected_dirty(pre_adj, post_adj, delta):
    """The spec of ``StepDelta.dirty``, computed independently from adjacency snapshots."""
    expected = set()
    for u, v in delta.added + delta.removed:
        expected |= {u, v} | pre_adj[u] | pre_adj[v] | post_adj[u] | post_adj[v]
    for u, v in delta.reweighted:
        expected |= {u, v} | post_adj[u] | post_adj[v]
    return expected


class TestStepDeltaDirtySet:
    @pytest.mark.parametrize("model_name,cls,kwargs", MODELS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_dirty_is_exactly_the_flipped_link_neighborhood(self, model_name, cls, kwargs, seed):
        dynamic = _generator(cls, kwargs, seed).dynamic()
        dynamic.views()  # exercise the view-maintaining path, not just the link diff
        for _ in range(5):
            pre_adj = _adjacency_snapshot(dynamic.network)
            delta = dynamic.advance()
            post_adj = _adjacency_snapshot(dynamic.network)
            assert set(delta.dirty) == _expected_dirty(pre_adj, post_adj, delta)

    def test_zero_movement_trial_has_an_empty_dirty_set(self):
        generator = _generator(
            LinkChurnGenerator, dict(reweight_probability=0.0, outage_probability=0.0), seed=5
        )
        dynamic = generator.dynamic()
        dynamic.views()
        for _ in range(4):
            delta = dynamic.advance()
            assert delta.dirty == frozenset()

    def test_step_listeners_receive_every_delta_in_order(self):
        dynamic = _generator(RandomWaypointGenerator, {}, seed=1).dynamic()
        seen = []
        dynamic.add_step_listener(seen.append)
        deltas = [dynamic.advance() for _ in range(3)]
        assert seen == deltas


def _fresh_dynamic_trial(generator, spec, metric, run_index: int = 0) -> Trial:
    return Trial(
        spec=spec,
        metric=metric,
        density=float(len(generator.generate(run_index))),
        run_index=run_index,
        network=generator.generate(run_index),
        generator=generator,
    )


def _spec(**overrides) -> ExperimentSpec:
    base = ExperimentSpec(
        experiment_id="incremental-selection-test",
        title="Incremental selection test",
        measure="ans-churn",
        metric="bandwidth",
        selectors=("fnbp", "topology-filtering", "qolsr-mpr2"),
        topology="rwp",
        densities=(25.0,),
        runs=2,
        timesteps=3,
        field=FIELD,
        seed=17,
    )
    return base.with_overrides(**overrides) if overrides else base


class TestCachedSelectionEqualsFromScratch:
    @pytest.mark.parametrize("model_name,cls,kwargs", MODELS)
    @pytest.mark.parametrize("metric_name,metric", METRIC_FAMILIES)
    def test_all_selectors_bit_identical_across_steps(
        self, model_name, cls, kwargs, metric_name, metric
    ):
        """The differential anchor: cache-served results equal from-scratch ``select``
        results -- full SelectionResult equality -- for every registered selector, after
        every step of a seeded dynamic trial."""
        selector_names = SELECTORS.names()
        generator = _generator(cls, kwargs, seed=11)
        spec = _spec(metric="bandwidth")
        trial = _fresh_dynamic_trial(generator, spec, metric)
        dynamic = trial.dynamic_topology()

        def assert_cache_matches_scratch():
            views = dynamic.views()
            for name in selector_names:
                cached = trial.selection_cache().select_all(
                    name, metric, views, network=trial.network
                )
                selector = make_selector(name)
                scratch = {node: selector.select(view, metric) for node, view in views.items()}
                assert cached == scratch

        assert_cache_matches_scratch()
        for _ in range(3):
            dynamic.advance()
            assert_cache_matches_scratch()

    def test_interleaved_and_lagging_keys_accumulate_invalidations(self):
        """A (selector, metric) key consulted only every other step must re-run the union
        of everything dirtied since its own last selection, not just the last delta."""
        metric = BandwidthMetric()
        generator = _generator(RandomWaypointGenerator, dict(mobile_fraction=0.3), seed=2)
        trial = _fresh_dynamic_trial(generator, _spec(), metric)
        dynamic = trial.dynamic_topology()
        trial.step_selections("fnbp")
        trial.step_selections("qolsr-mpr2")
        for step in range(4):
            dynamic.advance()
            trial.step_selections("fnbp")  # consulted every step
            if step % 2 == 1:  # consulted every other step: pending dirt accumulates
                lagging = trial.step_selections("qolsr-mpr2")
                selector = make_selector("qolsr-mpr2")
                views = dynamic.views()
                scratch = {node: selector.select(view, metric) for node, view in views.items()}
                assert lagging == scratch

    def test_zero_movement_trial_reruns_no_selector_after_warmup(self, monkeypatch):
        """The cache-fully-warm anchor: on a frozen topology, steps after the first
        selection trigger zero selector invocations."""
        from repro.core import fnbp

        metric = BandwidthMetric()
        generator = _generator(
            LinkChurnGenerator, dict(reweight_probability=0.0, outage_probability=0.0), seed=5
        )
        trial = _fresh_dynamic_trial(generator, _spec(), metric)
        calls = []
        original = fnbp.FnbpSelector.select

        def counting_select(self, view, m):
            calls.append(view.owner)
            return original(self, view, m)

        monkeypatch.setattr(fnbp.FnbpSelector, "select", counting_select)
        warm = trial.step_selections("fnbp")
        assert len(calls) == len(trial.network)
        calls.clear()
        dynamic = trial.dynamic_topology()
        for _ in range(3):
            dynamic.advance()
            assert trial.step_selections("fnbp") == warm
        assert calls == []

    def test_incremental_runs_batch_prime_only_the_owners_that_rerun(self, monkeypatch):
        """select_all's shared-CSR priming covers exactly the views whose selector will
        actually re-run: all owners on a from-scratch run, only dirty-or-new owners on
        an incremental one (priming the rest would be pure waste -- their previous
        SelectionResult is reused verbatim)."""
        from repro.core import selection as selection_module
        from repro.localview import paths as paths_module

        metric = BandwidthMetric()
        generator = _generator(RandomWaypointGenerator, dict(mobile_fraction=0.3), seed=4)
        trial = _fresh_dynamic_trial(generator, _spec(), metric)
        dynamic = trial.dynamic_topology()
        primed_batches = []

        def recording_prime(views, m):
            views = list(views)
            primed_batches.append({view.owner for view in views})
            return paths_module.prime_first_hops(views, m)

        monkeypatch.setattr(selection_module, "prime_first_hops", recording_prime)
        trial.step_selections("fnbp")
        assert primed_batches.pop() == set(dynamic.views())  # from-scratch: everyone
        delta = dynamic.advance()
        assert delta.dirty  # the step really invalidated someone
        trial.step_selections("fnbp")
        # RWP keeps the node set stable, so "re-runs" is exactly the dirty set.
        assert primed_batches.pop() == set(delta.dirty)
        assert primed_batches == []

    def test_select_all_rejects_previous_without_dirty(self):
        metric = BandwidthMetric()
        generator = _generator(RandomWaypointGenerator, {}, seed=0)
        network = generator.generate(0)
        selector = make_selector("fnbp")
        results = selector.select_all(network, metric)
        with pytest.raises(ValueError, match="together"):
            selector.select_all(network, metric, previous=results)
        with pytest.raises(ValueError, match="together"):
            selector.select_all(network, metric, dirty=set())

    def test_cache_clear_forces_a_from_scratch_run(self, monkeypatch):
        from repro.core import fnbp

        metric = BandwidthMetric()
        generator = _generator(
            LinkChurnGenerator, dict(reweight_probability=0.0, outage_probability=0.0), seed=5
        )
        trial = _fresh_dynamic_trial(generator, _spec(), metric)
        calls = []
        original = fnbp.FnbpSelector.select

        def counting_select(self, view, m):
            calls.append(view.owner)
            return original(self, view, m)

        monkeypatch.setattr(fnbp.FnbpSelector, "select", counting_select)
        trial.step_selections("fnbp")
        trial.selection_cache().clear()
        trial.step_selections("fnbp")
        assert len(calls) == 2 * len(trial.network)


class TestDynamicSweepsStayBitIdentical:
    @pytest.mark.parametrize("measure", ["ans-churn", "tc-overhead", "route-stability"])
    def test_serial_and_parallel_runs_agree_with_the_cache_in_play(self, measure):
        """The engine-level half of the differential: the cache is per-trial and therefore
        per-worker, so dynamic sweeps stay bit-identical serial vs REPRO_WORKERS=2."""
        spec = _spec(measure=measure, pairs_per_run=3)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_cache_free_reference_measurement_is_unchanged(self):
        """The measure outputs with the cache in play equal a cache-free reference that
        re-selects from scratch every step (the pre-cache behavior of the measures)."""
        from repro.metrics.assignment import canonical_edge
        from repro.mobility.measures import _selection_churn_trial

        metric = BandwidthMetric()
        spec = _spec(timesteps=4)
        generator = _generator(RandomWaypointGenerator, dict(mobile_fraction=0.3), seed=23)
        cached_payload = _selection_churn_trial(_fresh_dynamic_trial(generator, spec, metric))

        # Cache-free reference: same stepping, selections recomputed from scratch.
        trial = _fresh_dynamic_trial(generator, spec, metric)
        dynamic = trial.dynamic_topology()

        def scratch_state(name):
            selector = make_selector(name)
            sets = {n: selector.select(v, metric).selected for n, v in dynamic.views().items()}
            edges = {canonical_edge(n, r) for n, sel in sets.items() for r in sel}
            return sets, edges

        previous = {name: scratch_state(name) for name in spec.selectors}
        churn = {name: [] for name in spec.selectors}
        tc = {name: [] for name in spec.selectors}
        node_count = len(dynamic.network)
        for _ in range(spec.timesteps):
            dynamic.advance()
            for name in spec.selectors:
                sets, edges = scratch_state(name)
                churn[name].append(float(len(edges ^ previous[name][1])))
                re_advertised = sum(
                    len(sel) for n, sel in sets.items() if sel != previous[name][0].get(n)
                )
                tc[name].append(re_advertised / node_count)
                previous[name] = (sets, edges)
        assert cached_payload["churn"] == churn
        assert cached_payload["tc"] == tc


class TestSelectionCacheUnit:
    def test_invalidate_only_touches_cached_keys(self):
        cache = SelectionCache()
        metric = BandwidthMetric()
        generator = _generator(RandomWaypointGenerator, {}, seed=4)
        network = generator.generate(0)
        from repro.localview.view import LocalView

        views = LocalView.all_from_network(network)
        first = cache.select_all("fnbp", metric, views, network=network)
        cache.invalidate([network.nodes()[0]])
        # A key selected for the first time after invalidations runs from scratch anyway.
        second = cache.select_all("topology-filtering", metric, views, network=network)
        assert set(first) == set(second) == set(views)
        # Re-selecting the invalidated key with unchanged views is still bit-identical.
        assert cache.select_all("fnbp", metric, views, network=network) == first


class TestTopologyFilteringInvalidation:
    """Cached batched topology filtering equals from-scratch scalar selection across
    every mutation path of the shared CSR: weight patches, structural rebuilds, and a
    view detached by ``LocalView.update_link``.  The ``filtering.*`` counters prove the
    batched kernel, not the scalar fallback, answered the re-selected owners."""

    @staticmethod
    def _cached_vs_scratch(trial, metric):
        with counters() as counted:
            cached = trial.step_selections("topology-filtering")
        selector = make_selector("topology-filtering")
        scratch_views = LocalView.all_from_network(trial.dynamic_topology().network)
        assert all(view.network_graph() is None for view in scratch_views.values())
        scratch = {node: selector.select(view, metric) for node, view in scratch_views.items()}
        assert cached == scratch
        return counted

    @pytest.mark.parametrize("metric_name,metric", METRIC_FAMILIES[:2])
    def test_reweight_only_steps(self, metric_name, metric):
        generator = _generator(
            LinkChurnGenerator, dict(reweight_probability=0.2, outage_probability=0.0), seed=6
        )
        trial = _fresh_dynamic_trial(generator, _spec(), metric)
        dynamic = trial.dynamic_topology()
        counted = self._cached_vs_scratch(trial, metric)
        assert counted["filtering.batched_views"] == len(trial.network)
        ng = dynamic.network_graph()
        for _ in range(3):
            generation = ng.generation
            delta = dynamic.advance()
            assert delta.reweighted and not (delta.added or delta.removed)
            assert ng.generation == generation  # patched in place, not rebuilt
            counted = self._cached_vs_scratch(trial, metric)
            assert counted["filtering.batched_views"] == len(delta.dirty)
            assert "filtering.scalar_views" not in counted

    @pytest.mark.parametrize("metric_name,metric", METRIC_FAMILIES[:2])
    def test_link_flip_steps(self, metric_name, metric):
        generator = _generator(RandomWaypointGenerator, dict(mobile_fraction=0.3), seed=8)
        trial = _fresh_dynamic_trial(generator, _spec(), metric)
        dynamic = trial.dynamic_topology()
        self._cached_vs_scratch(trial, metric)
        ng = dynamic.network_graph()
        flips = 0
        for _ in range(4):
            generation = ng.generation
            delta = dynamic.advance()
            if delta.added or delta.removed:
                flips += 1
                assert ng.generation == generation + 1
            counted = self._cached_vs_scratch(trial, metric)
            assert counted.get("filtering.batched_views", 0) == len(delta.dirty)
        assert flips

    def test_view_detached_by_update_link(self):
        metric = BandwidthMetric()
        generator = _generator(RandomWaypointGenerator, {}, seed=4)
        trial = _fresh_dynamic_trial(generator, _spec(), metric)
        views = trial.dynamic_topology().views()
        owner = trial.network.nodes()[0]
        neighbor = min(views[owner].one_hop)
        views[owner].update_link(owner, neighbor, bandwidth=0.5)
        assert views[owner].network_graph() is None
        selector = make_selector("topology-filtering")
        with counters() as counted:
            batched = selector.select_all(trial.network, metric, views=views)
        assert counted["filtering.scalar_views"] == 1
        assert counted["filtering.batched_views"] == len(views) - 1
        scratch_views = LocalView.all_from_network(trial.network)
        scratch_views[owner].update_link(owner, neighbor, bandwidth=0.5)
        scratch = {node: selector.select(view, metric) for node, view in scratch_views.items()}
        assert batched == scratch
