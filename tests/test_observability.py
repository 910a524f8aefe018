"""The telemetry layer's contract suite.

Four guarantees, mirroring ``docs/observability.md``:

* **Registry semantics.**  Counters/histograms fold and merge exactly (merge of
  snapshots == one registry fed everything), spans nest and survive exceptions, and the
  worker envelope (:class:`TrialTelemetry`) round-trips through pickle.
* **Determinism.**  The deterministic sections (counters, histograms) of every
  ``on_metrics`` snapshot are bit-identical serial vs ``REPRO_WORKERS=2``, and with
  telemetry enabled the primary jsonl/result streams stay byte-identical to a
  telemetry-off run (telemetry observes; it never perturbs).
* **Off by default.**  No ``REPRO_METRICS``/``metrics=`` opt-in means no registry, no
  ``on_metrics`` events, and the classic byte-identical text report.
* **Failure containment.**  A raising metrics sink is quarantined like any other sink;
  injected trial faults under ``--on-error skip`` leave no open spans, count retries and
  failures, and ship telemetry only for attempts that succeeded.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.experiments import sweep_cli
from repro.experiments.engine import run_experiment
from repro.experiments.sinks import (
    MemorySink,
    MetricsCapture,
    MetricsJsonlSink,
    ProgressSink,
    TextReportSink,
    _format_duration,
)
from repro.experiments.spec import ExperimentSpec
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.mobility import LinkChurnGenerator
from repro.obs import runtime as obs
from repro.obs.registry import (
    MetricsRegistry,
    TrialTelemetry,
    deterministic_sections,
    merge_trial,
    unwrap_payload,
)
from repro.obs.report import build_profile, render_metrics_summary
from repro.testing.faults import FaultySink
from repro.topology.generators import FieldSpec

EXAMPLE_SPEC = Path(__file__).resolve().parent.parent / "examples" / "specs" / "custom_delay_sweep.json"

FIELD = FieldSpec(width=400.0, height=400.0, radius=100.0)


@pytest.fixture(autouse=True)
def _clean_telemetry_env(monkeypatch):
    """No telemetry/fault/worker configuration leaks between tests (or in from outside)."""
    for variable in ("REPRO_METRICS", "REPRO_FAULTS", "REPRO_WORKERS", "REPRO_MAX_RETRIES"):
        monkeypatch.delenv(variable, raising=False)
    assert not obs.enabled()


def _dynamic_spec(**overrides) -> ExperimentSpec:
    """A small mobility sweep exercising selection cache, kernels and weight-only steps."""
    base = ExperimentSpec(
        experiment_id="obs-dynamic",
        title="Telemetry dynamic sweep",
        measure="ans-churn",
        metric="bandwidth",
        selectors=("fnbp", "topology-filtering"),
        topology="churn",
        densities=(16.0, 20.0),
        runs=2,
        pairs_per_run=2,
        timesteps=2,
        step_interval=1.0,
        field=FIELD,
        seed=11,
    )
    return base.with_overrides(**overrides) if overrides else base


def _protocol_spec(**overrides) -> ExperimentSpec:
    """A tiny protocol-simulator sweep (real HELLO/TC traffic over a lossy channel)."""
    base = ExperimentSpec(
        experiment_id="obs-protocol",
        title="Telemetry protocol sweep",
        measure="route-flaps",
        metric="bandwidth",
        selectors=("fnbp", "qolsr-mpr2"),
        topology="churn",
        densities=(20.0,),
        runs=1,
        pairs_per_run=3,
        timesteps=2,
        step_interval=1.0,
        hello_interval=1.0,
        tc_interval=1.0,
        loss_rate=0.1,
        field=FIELD,
        seed=11,
    )
    return base.with_overrides(**overrides) if overrides else base


# ------------------------------------------------------------------ registry semantics


class TestMetricsRegistry:
    def test_counters_histograms_fold(self):
        registry = MetricsRegistry()
        registry.count("hits")
        registry.count("hits", 4)
        for value in (2.0, 5.0, 3.0):
            registry.observe("dirty", value)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "histograms", "spans"}
        assert snapshot["counters"] == {"hits": 5}
        assert snapshot["histograms"]["dirty"] == {"count": 3, "total": 10.0, "min": 2.0, "max": 5.0}

    def test_snapshot_sections_are_key_sorted(self):
        registry = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.count(name)
            registry.observe(name, 1.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["alpha", "mid", "zeta"]
        assert list(snapshot["histograms"]) == ["alpha", "mid", "zeta"]

    def test_spans_nest_and_record_wall_clock(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            assert registry.active_spans() == ["outer"]
            with registry.span("inner"):
                assert registry.active_spans() == ["outer", "inner"]
        assert registry.active_spans() == []
        snapshot = registry.snapshot()
        assert set(snapshot["spans"]) == {"outer", "inner"}
        for stats in snapshot["spans"].values():
            assert stats["count"] == 1
            assert stats["total"] >= 0.0
            assert stats["mean"] == stats["total"]

    def test_a_raising_span_still_closes_and_records(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("outer"):
                with registry.span("inner"):
                    raise RuntimeError("boom")
        assert registry.active_spans() == []
        assert registry.spans["outer"]["count"] == 1
        assert registry.spans["inner"]["count"] == 1

    def test_merge_snapshot_equals_single_registry(self):
        """Folding two trial snapshots into a run registry == one registry fed everything."""
        one, two, whole = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for registry, values in ((one, (1.0, 9.0)), (two, (4.0,))):
            for value in values:
                registry.count("events")
                registry.observe("sizes", value)
                whole.count("events")
                whole.observe("sizes", value)
        merged = MetricsRegistry()
        merged.merge_snapshot(one.snapshot())
        merged.merge_snapshot(two.snapshot())
        assert deterministic_sections(merged.snapshot()) == deterministic_sections(whole.snapshot())

    def test_merge_snapshot_folds_span_stats(self):
        source = MetricsRegistry()
        with source.span("phase"):
            pass
        merged = MetricsRegistry()
        merged.merge_snapshot(source.snapshot())
        merged.merge_snapshot(source.snapshot())
        assert merged.snapshot()["spans"]["phase"]["count"] == 2

    def test_trial_telemetry_pickles_and_unwraps(self):
        envelope = TrialTelemetry({"value": 3}, {"counters": {"runner.trials": 1}})
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone.payload == {"value": 3} and clone.snapshot == envelope.snapshot
        assert unwrap_payload(envelope) == {"value": 3}
        assert unwrap_payload({"bare": True}) == {"bare": True}

    def test_merge_trial_merges_exactly_the_envelope(self):
        registry = MetricsRegistry()
        envelope = TrialTelemetry({"value": 3}, {"counters": {"runner.trials": 1}})
        assert merge_trial(registry, envelope) == {"value": 3}
        assert registry.counters == {"runner.trials": 1}
        # Bare payloads (telemetry off) pass through without touching the registry.
        assert merge_trial(registry, {"bare": True}) == {"bare": True}
        assert registry.counters == {"runner.trials": 1}
        assert merge_trial(None, envelope) == {"value": 3}


class TestAmbientRuntime:
    def test_helpers_are_no_ops_without_a_registry(self):
        assert not obs.enabled()
        obs.add("anything")
        obs.observe("anything", 1.0)
        with obs.span("anything"):
            pass  # the shared null span

    def test_install_returns_previous_for_nesting(self):
        run, trial = MetricsRegistry(), MetricsRegistry()
        assert obs.install(run) is None
        try:
            obs.add("outer")
            previous = obs.install(trial)
            assert previous is run
            obs.add("inner")
            obs.install(previous)
            obs.add("outer")
        finally:
            obs.install(None)
        assert run.counters == {"outer": 2} and trial.counters == {"inner": 1}

    def test_resolve_metrics_env_contract(self, monkeypatch):
        assert obs.resolve_metrics(True) is True
        assert obs.resolve_metrics(False) is False
        assert obs.resolve_metrics(None) is False  # unset -> off by default
        for raw, expected in (("1", True), ("yes", True), ("ON", True), ("0", False), ("off", False), ("", False)):
            monkeypatch.setenv("REPRO_METRICS", raw)
            assert obs.resolve_metrics(None) is expected
        monkeypatch.setenv("REPRO_METRICS", "2")
        with pytest.raises(ValueError, match="REPRO_METRICS"):
            obs.resolve_metrics(None)
        # An explicit argument always wins over the environment.
        assert obs.resolve_metrics(False) is False


class TestStepTelemetry:
    def test_a_changed_step_counts_one_graph_build_and_every_dirty_owner(self):
        """``csr_rebuild`` times one new graph per changed step (no other step span
        exists) and ``mobility.views_rebuilt`` counts every dirty owner, the owners that
        see only a reweighted link included."""
        generator = LinkChurnGenerator(
            field=FIELD,
            node_count=30,
            seed=2,
            weight_assigners=tuple(
                UniformWeightAssigner(metric=metric, seed=9)
                for metric in (BandwidthMetric(), DelayMetric())
            ),
            reweight_probability=0.3,
            outage_probability=0.2,
        )
        dynamic = generator.dynamic()
        dynamic.views()
        registry = MetricsRegistry()
        previous = obs.install(registry)
        try:
            deltas = [dynamic.advance() for _ in range(4)]
        finally:
            obs.install(previous)
        assert any(delta.reweighted for delta in deltas)
        assert any(delta.link_churn for delta in deltas)
        assert registry.counters["mobility.steps"] == 4
        assert registry.counters["mobility.views_rebuilt"] == sum(len(d.dirty) for d in deltas)
        assert sorted(registry.spans) == ["csr_rebuild", "mobility_step"]
        assert registry.spans["csr_rebuild"]["count"] == sum(bool(d.dirty) for d in deltas)


# ------------------------------------------------------------------ engine integration


class TestEngineTelemetry:
    def test_on_metrics_cadence_and_cumulative_snapshots(self):
        spec = _dynamic_spec()
        capture = MetricsCapture()
        run_experiment(spec, sinks=[capture], metrics=True)
        # One snapshot after every density checkpoint plus the run total.
        assert [snap["density"] for snap in capture.snapshots] == [16.0, 20.0, None]
        trials = [snap["counters"]["runner.trials"] for snap in capture.snapshots]
        assert trials == [2, 4, 4]  # cumulative, runs per density at a time
        total = capture.last["counters"]
        assert total["engine.densities_completed"] == len(spec.densities)
        assert total["mobility.steps"] == len(spec.densities) * spec.runs * spec.timesteps
        assert total["selection.owners_selected"] >= len(spec.selectors)
        assert total["selection.cache_hits"] > 0  # a step replaces only its dirty views
        assert "mobility.dirty_owners" in capture.last["histograms"]
        assert {"trial", "measure", "topology_build", "sink_flush"} <= set(capture.last["spans"])

    def test_metrics_off_means_no_events_and_no_ambient_registry(self):
        capture = MetricsCapture()
        run_experiment(_dynamic_spec(), sinks=[capture])
        assert capture.snapshots == [] and capture.last is None
        assert not obs.enabled()

    def test_repro_metrics_env_enables_telemetry(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        capture = MetricsCapture()
        run_experiment(_dynamic_spec(), sinks=[capture])
        assert capture.last is not None and capture.last["density"] is None

    def test_deterministic_sections_identical_serial_vs_workers(self, monkeypatch):
        spec = _dynamic_spec()
        serial = MetricsCapture()
        serial_result = run_experiment(spec, sinks=[serial], metrics=True)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = MetricsCapture()
        parallel_result = run_experiment(spec, sinks=[parallel], metrics=True)
        assert serial_result.to_dict() == parallel_result.to_dict()
        assert len(serial.snapshots) == len(parallel.snapshots) == len(spec.densities) + 1
        for left, right in zip(serial.snapshots, parallel.snapshots):
            assert left["density"] == right["density"]
            assert deterministic_sections(left) == deterministic_sections(right)

    def test_telemetry_does_not_perturb_results(self):
        spec = _dynamic_spec()
        plain = run_experiment(spec)
        instrumented = run_experiment(spec, sinks=[MetricsCapture()], metrics=True)
        assert plain.to_dict() == instrumented.to_dict()

    def test_raising_metrics_sink_is_quarantined(self):
        faulty = FaultySink(fail_on="on_metrics")
        memory = MemorySink()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            run_experiment(_dynamic_spec(), sinks=[faulty, memory], metrics=True)
        assert len(memory.results) == 1  # the sweep survived the broken sink
        assert faulty.calls.count("on_metrics") == 1  # dropped at the first raise
        assert "on_result" not in faulty.calls


class TestFaultedTelemetry:
    def test_skip_counts_retries_and_failures_and_closes_spans(self, monkeypatch):
        """A poisoned trial under ``--on-error skip``: its attempts retry (counted), its
        telemetry is discarded with the failed attempts, and no span leaks open."""
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=16,run=0")
        spec = _dynamic_spec()
        capture = MetricsCapture()
        run_experiment(spec, sinks=[capture], metrics=True, on_error="skip")
        assert not obs.enabled()
        counters = capture.last["counters"]
        assert counters["runner.trial_failures"] == 1
        assert counters["runner.retries"] == 2  # REPRO_MAX_RETRIES default: 2 extra attempts
        # Only successful trials ship telemetry: 2 densities x 2 runs minus the poisoned one.
        assert counters["runner.trials"] == 3
        assert capture.last["spans"]["trial"]["count"] == 3

    def test_transient_fault_recovers_with_retries_counted(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=16,run=1,attempts=2")
        spec = _dynamic_spec()
        capture = MetricsCapture()
        recovered = run_experiment(spec, sinks=[capture], metrics=True)
        counters = capture.last["counters"]
        assert counters["runner.retries"] == 2
        assert "runner.trial_failures" not in counters
        assert counters["runner.trials"] == spec.runs * len(spec.densities)
        # The recovered sweep's results equal an undisturbed one's.
        monkeypatch.delenv("REPRO_FAULTS")
        assert recovered.to_dict() == run_experiment(spec).to_dict()


# ------------------------------------------------------------------ protocol telemetry


class TestProtocolTelemetry:
    def test_control_counts_ride_density_point_extra(self):
        spec = _protocol_spec()
        capture = MetricsCapture()
        result = run_experiment(spec, sinks=[capture], metrics=True)
        keys = {"hellos_sent", "tcs_sent", "tcs_forwarded", "transmissions", "deliveries", "losses"}
        for name in spec.selectors:
            for point in result.series[name].points:
                control = point.extra["control"]
                assert set(control) == keys
                assert all(isinstance(value, int) and value >= 0 for value in control.values())
                assert control["transmissions"] == control["deliveries"] + control["losses"]
                assert control["hellos_sent"] > 0 and control["tcs_sent"] > 0

        # The per-point extras and the registry counters describe the same traffic: with
        # one density, summing a counter's per-selector extras gives the run total.
        counters = capture.last["counters"]
        points = [result.series[name].points[0] for name in spec.selectors]
        assert counters["protocol.radio.transmissions"] == sum(
            point.extra["control"]["transmissions"] for point in points
        )
        assert counters["protocol.hellos_sent"] == sum(
            point.extra["control"]["hellos_sent"] for point in points
        )
        assert counters["protocol.events_processed"] > 0
        assert "protocol_sim" in capture.last["spans"]

    def test_control_extras_are_deterministic_serial_vs_workers(self, monkeypatch):
        spec = _protocol_spec(runs=2)
        serial = run_experiment(spec, metrics=True)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = run_experiment(spec, metrics=True)
        assert serial.to_dict() == parallel.to_dict()  # extras included


# ------------------------------------------------------------------ sinks and reports


class TestTelemetrySinks:
    def test_metrics_jsonl_sink_streams_only_on_metrics(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        spec = _dynamic_spec()
        run_experiment(spec, sinks=[MetricsJsonlSink(path)], metrics=True)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["event"] for record in records] == ["metrics"] * (len(spec.densities) + 1)
        assert [record["density"] for record in records] == [16.0, 20.0, None]
        for record in records:
            assert record["experiment_id"] == spec.experiment_id
            assert set(record) >= {"counters", "histograms", "spans"}

    def test_text_report_appends_summary_only_with_telemetry(self, tmp_path):
        spec = _dynamic_spec()
        metrics_path = tmp_path / "metrics.txt"
        sink = TextReportSink(metrics_path)
        run_experiment(spec, sinks=[sink], metrics=True)
        sink.close()
        off_sink = TextReportSink(tmp_path / "off.txt")
        run_experiment(spec, sinks=[off_sink])
        off_sink.close()
        plain = (tmp_path / "off.txt").read_text()
        instrumented = metrics_path.read_text()
        assert "telemetry summary" in instrumented
        assert f"[{spec.experiment_id}]" in instrumented
        assert "telemetry summary" not in plain
        # The report body is untouched; telemetry only appends below it.
        assert instrumented.startswith(plain.rstrip("\n"))

    def test_render_metrics_summary_handles_empty_snapshots(self):
        text = render_metrics_summary({"counters": {}, "histograms": {}, "spans": {}})
        assert "no telemetry recorded" in text

    def test_build_profile_shape(self):
        registry = MetricsRegistry()
        registry.count("selection.owners_selected", 2)
        with registry.span("selection"):
            pass
        profile = build_profile(_dynamic_spec(), registry.snapshot())
        assert profile["experiment_id"] == "obs-dynamic"
        assert set(profile["spans"]["selection"]) == {"count", "total", "mean", "min", "max"}
        assert profile["counters"]["selection.owners_selected"] == 2


class TestProgressThroughput:
    def test_format_duration(self):
        assert _format_duration(42.31) == "42.3s"
        assert _format_duration(185) == "3m05s"
        assert _format_duration(2 * 3600 + 14 * 60) == "2h14m"

    def test_throughput_lines_with_injected_clock(self):
        spec = _dynamic_spec()
        ticks = iter([0.0, 10.0, 30.0])
        lines = []
        sink = ProgressSink(lines.append, throughput=True, clock=lambda: next(ticks))
        sink.on_sweep_start(spec)
        for _ in range(4):
            sink.on_trial(spec, 16.0, 0, {}, None)  # messageless trials still count
        sink.on_density(spec, 16.0, {})
        sink.on_density(spec, 20.0, {})
        assert lines == [
            "[obs-dynamic] density=16 finished (1/2 densities) | 0.4 trials/s | ETA 10.0s",
            "[obs-dynamic] density=20 finished (2/2 densities) | 0.1 trials/s | ETA 0.0s",
        ]

    def test_throughput_off_by_default_keeps_streams_deterministic(self):
        lines = []
        sink = ProgressSink(lines.append)
        spec = _dynamic_spec()
        sink.on_sweep_start(spec)
        sink.on_trial(spec, 16.0, 0, {}, "a message")
        sink.on_density(spec, 16.0, {})
        assert lines == ["a message"]  # no wall-clock line without the opt-in


# ------------------------------------------------------------------ CLI end to end


class TestSweepCliTelemetry:
    def test_metrics_flags_stream_and_profile_without_perturbing_results(self, tmp_path, capsys):
        plain_jsonl = tmp_path / "plain.jsonl"
        assert sweep_cli.main(["--spec", str(EXAMPLE_SPEC), "--quiet", "--jsonl", str(plain_jsonl)]) == 0
        capsys.readouterr()

        metrics_jsonl = tmp_path / "metrics.jsonl"
        primary_jsonl = tmp_path / "instrumented.jsonl"
        profile = tmp_path / "profile.json"
        exit_code = sweep_cli.main(
            [
                "--spec",
                str(EXAMPLE_SPEC),
                "--quiet",
                "--jsonl",
                str(primary_jsonl),
                "--metrics",
                "--metrics-jsonl",
                str(metrics_jsonl),
                "--profile-trials",
                str(profile),
            ]
        )
        assert exit_code == 0
        # Telemetry observes: the primary event stream is byte-identical with it on.
        assert primary_jsonl.read_bytes() == plain_jsonl.read_bytes()

        records = [json.loads(line) for line in metrics_jsonl.read_text().splitlines()]
        assert records and all(record["event"] == "metrics" for record in records)
        assert records[-1]["density"] is None

        report = json.loads(profile.read_text())
        assert report["experiment_id"] == "custom-delay"
        assert "trial" in report["spans"]
        assert report["counters"]["runner.trials"] == records[-1]["counters"]["runner.trials"]

        printed = capsys.readouterr().out
        assert "telemetry summary" in printed

    def test_bad_repro_metrics_value_is_a_clean_cli_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_METRICS", "maybe")
        with pytest.raises(SystemExit):
            sweep_cli.main(["--spec", str(EXAMPLE_SPEC), "--quiet"])
        assert "REPRO_METRICS" in capsys.readouterr().err
