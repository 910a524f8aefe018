"""Tests for the unified registry subsystem and the declarative ExperimentSpec."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments.presets import PROFILES, figure_spec
from repro.experiments.spec import ExperimentSpec
from repro.registry import (
    ALL_REGISTRIES,
    MEASURES,
    METRICS,
    PRESETS,
    SELECTORS,
    SINKS,
    TOPOLOGY_MODELS,
    Registry,
)
from repro.topology.generators import FieldSpec


class TestRegistry:
    def test_decorator_and_direct_registration(self):
        registry = Registry("demo")

        @registry.register("decorated", description="a decorated entry")
        class Decorated:
            pass

        registry.register("direct", lambda: "made-directly")
        assert registry.names() == ["decorated", "direct"]
        assert isinstance(registry.create("decorated"), Decorated)
        assert registry.create("direct") == "made-directly"
        assert "decorated" in registry and "missing" not in registry
        assert registry.describe()["decorated"] == "a decorated entry"

    def test_unknown_name_error_names_registry_and_known_entries(self):
        registry = Registry("demo")
        registry.register("only-entry", lambda: None)
        with pytest.raises(KeyError) as excinfo:
            registry.get("nope")
        message = str(excinfo.value)
        assert "demo registry" in message
        assert "only-entry" in message
        assert "nope" in message

    def test_iteration_and_length(self):
        registry = Registry("demo")
        registry.register("b", lambda: 2)
        registry.register("a", lambda: 1)
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2

    def test_non_callable_factory_is_rejected(self):
        registry = Registry("demo")
        with pytest.raises(TypeError):
            registry.register("bad", "not-callable")

    def test_failed_populate_surfaces_on_every_lookup(self):
        """A broken built-in load must not latch the registry into 'knows []' -- the real
        error re-raises on retry instead of a misleading empty-registry KeyError."""
        registry = Registry("demo")
        attempts = []

        @registry.on_populate
        def _broken_load():
            attempts.append(True)
            if len(attempts) < 2:
                raise ImportError("optional dependency missing")
            registry.register("late", lambda: "finally-loaded")

        with pytest.raises(ImportError):
            registry.names()
        assert registry.names() == ["late"]  # retried, not latched empty
        assert len(attempts) == 2

    def test_lazy_populate_runs_once_on_first_lookup(self):
        calls = []
        registry = Registry("demo")

        @registry.on_populate
        def _load():
            calls.append(True)
            registry.register("built-in", lambda: 42)

        assert calls == []
        assert registry.names() == ["built-in"]
        assert registry.create("built-in") == 42
        assert calls == [True]

    @pytest.mark.parametrize(
        "registry, expected",
        [
            (SELECTORS, {"fnbp", "qolsr-mpr2", "topology-filtering", "olsr-mpr"}),
            (METRICS, {"bandwidth", "delay", "jitter"}),
            (TOPOLOGY_MODELS, {"poisson", "fixed-count", "grid"}),
            (MEASURES, {"ans-size", "overhead"}),
            (SINKS, {"text", "json", "jsonl", "progress"}),
            (PRESETS, {"fig6", "fig7", "fig8", "fig9"}),
        ],
    )
    def test_builtin_entries_are_registered(self, registry, expected):
        assert expected <= set(registry.names())

    def test_all_registries_index_is_complete(self):
        assert set(ALL_REGISTRIES.values()) == {
            SELECTORS,
            METRICS,
            TOPOLOGY_MODELS,
            MEASURES,
            SINKS,
            PRESETS,
        }

    @pytest.mark.parametrize(
        "registry, kind",
        [(SELECTORS, "selector"), (METRICS, "metric"), (TOPOLOGY_MODELS, "topology model"), (MEASURES, "measure")],
    )
    def test_builtin_unknown_name_errors_are_self_explanatory(self, registry, kind):
        with pytest.raises(KeyError) as excinfo:
            registry.get("definitely-not-registered")
        message = str(excinfo.value)
        assert f"{kind} registry" in message
        for known in registry.names():
            assert known in message


def _spec(**overrides) -> ExperimentSpec:
    base = dict(
        experiment_id="custom",
        title="A custom sweep",
        measure="overhead",
        metric="delay",
        selectors=("fnbp", "topology-filtering"),
        densities=(6.0, 9.0),
        runs=2,
        pairs_per_run=3,
        node_sample=20,
        field=FieldSpec(width=400.0, height=400.0, radius=100.0),
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    @pytest.mark.parametrize(
        "spec",
        [
            _spec(),
            _spec(node_sample=None, measure="ans-size", metric="bandwidth"),
            _spec(topology="fixed-count", densities=(30,), selectors=("fnbp",)),
        ],
    )
    def test_json_round_trip_is_identity(self, spec):
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_dump_and_load(self, tmp_path):
        spec = _spec()
        path = spec.dump(tmp_path / "spec.json")
        assert ExperimentSpec.load(path) == spec

    @pytest.mark.parametrize(
        "field_name, value, kind",
        [
            ("metric", "throughput", "metric"),
            ("measure", "latency-cdf", "measure"),
            ("topology", "mobility", "topology model"),
            ("selectors", ("fnbp", "not-a-selector"), "selector"),
        ],
    )
    def test_unknown_registry_names_fail_fast_with_known_entries(self, field_name, value, kind):
        spec = _spec()
        payload = spec.to_dict()
        payload[field_name] = list(value) if isinstance(value, tuple) else value
        with pytest.raises(KeyError) as excinfo:
            ExperimentSpec.from_dict(payload)
        assert f"{kind} registry" in str(excinfo.value)

    def test_unknown_spec_fields_are_rejected_by_name(self):
        payload = _spec().to_dict()
        payload["densitise"] = [1, 2]
        with pytest.raises(ValueError, match="densitise"):
            ExperimentSpec.from_dict(payload)

    def test_numeric_validation_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            _spec(densities=())
        with pytest.raises(ValueError):
            _spec(runs=0)
        with pytest.raises(ValueError):
            _spec(weight_low=5.0, weight_high=2.0)

    @pytest.mark.parametrize(
        "field_name, value",
        [
            ("runs", 1.5),
            ("runs", True),
            ("seed", "abc"),
            ("field", [300, 300, 100]),
            ("field", {"width": 300.0, "depth": 300.0}),
            ("weight_low", float("nan")),
            ("weight_high", float("inf")),
            ("timesteps", 1.5),
            ("title", None),
            ("selectors", "fnbp"),
            ("densities", [10.0, float("nan")]),
            ("node_sample", 0),
            ("loss_rate", float("nan")),
        ],
    )
    def test_malformed_values_fail_at_construction_naming_the_field(self, field_name, value):
        payload = _spec().to_dict()
        payload[field_name] = value
        with pytest.raises((ValueError, TypeError)) as excinfo:
            ExperimentSpec.from_dict(payload)
        assert field_name in str(excinfo.value)

    def test_profile_overrides_keep_identity_fields(self):
        preset = PRESETS.create("fig9")
        narrowed = figure_spec(9, "smoke")
        assert narrowed.experiment_id == preset.experiment_id
        assert narrowed.measure == preset.measure and narrowed.metric == preset.metric
        assert narrowed.densities == PROFILES["smoke"]["delay"]["densities"]
        assert narrowed.node_sample == PROFILES["smoke"]["delay"]["node_sample"]
        assert figure_spec(9, "paper") == preset

    def test_field_accepts_nested_dict(self):
        spec = _spec(field={"width": 250.0, "height": 300.0, "radius": 90.0})
        assert spec.field == FieldSpec(width=250.0, height=300.0, radius=90.0)


#: Arbitrary JSON values: scalars of every type (NaN and infinities included), empty and
#: nested lists and objects.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)

SPEC_FIELDS = sorted(_spec().to_dict())


class TestSpecContract:
    """``from_dict`` on a valid spec with one field replaced by arbitrary JSON either
    returns a spec that round-trips or raises an error naming that field."""

    @settings(max_examples=300, deadline=None)
    @given(field_name=st.sampled_from(SPEC_FIELDS), value=JSON_VALUES)
    @example(field_name="runs", value=1.5)
    @example(field_name="seed", value="abc")
    @example(field_name="field", value=[300, 300, 100])
    @example(field_name="weight_low", value=math.nan)
    @example(field_name="timesteps", value=1.5)
    @example(field_name="title", value=None)
    @example(field_name="selectors", value="fnbp")
    @example(field_name="runs", value=True)
    @example(field_name="densities", value=[])
    @example(field_name="field", value={"width": math.inf})
    def test_from_dict_validates_or_names_the_field(self, field_name, value):
        payload = _spec().to_dict()
        payload[field_name] = value
        try:
            spec = ExperimentSpec.from_dict(payload)
        except (ValueError, TypeError, KeyError) as exc:
            assert field_name in str(exc), f"{type(exc).__name__}: {exc}"
        else:
            assert ExperimentSpec.from_dict(spec.to_dict()) == spec


class TestPresets:
    @pytest.mark.parametrize(
        "name, measure, metric",
        [
            ("fig6", "ans-size", "bandwidth"),
            ("fig7", "ans-size", "delay"),
            ("fig8", "overhead", "bandwidth"),
            ("fig9", "overhead", "delay"),
        ],
    )
    def test_presets_cover_the_evaluation_figures(self, name, measure, metric):
        spec = PRESETS.create(name)
        assert spec.experiment_id == name
        assert spec.measure == measure
        assert spec.metric == metric
        assert spec.runs == 100  # the paper profile
        assert spec.validate_names() is spec

    def test_figure_spec_by_number(self):
        from repro.experiments.presets import figure_spec

        assert figure_spec(6).metric == "bandwidth"
        assert figure_spec(9).measure == "overhead"
        with pytest.raises(KeyError):
            figure_spec(3)
