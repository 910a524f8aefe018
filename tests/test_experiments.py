"""Tests for the evaluation harness: profiles, statistics, result containers and sweeps."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments import (
    BANDWIDTH_DENSITIES,
    DELAY_DENSITIES,
    ExperimentResult,
    ExperimentSpec,
    ProgressSink,
    SeriesPoint,
    Summary,
    build_trial,
    figure_spec,
    qos_overhead,
    render_report,
    run_experiment,
    summarize,
    write_json,
    write_report,
)
from repro.metrics import BandwidthMetric, DelayMetric


class TestConfig:
    def test_paper_config_matches_the_evaluation_section(self):
        spec = figure_spec(6)
        assert spec.densities == BANDWIDTH_DENSITIES
        assert spec.runs == 100
        assert spec.pairs_per_run == 1
        assert spec.node_sample is None
        assert spec.field.width == 1000.0 and spec.field.radius == 100.0
        assert figure_spec(7, "paper").densities == DELAY_DENSITIES

    def test_profiles_resolve(self):
        assert figure_spec(7, "quick").runs < figure_spec(7, "paper").runs
        assert figure_spec(6, "smoke").runs == 1
        assert figure_spec(9, "smoke").metric == "delay"
        with pytest.raises(KeyError, match="enormous"):
            figure_spec(6, "enormous")

    def test_validation_rejects_bad_parameters(self):
        def spec(**overrides):
            return ExperimentSpec(
                experiment_id="x", title="t", measure="ans-size", metric="bandwidth", **overrides
            )

        with pytest.raises(ValueError):
            spec(densities=())
        with pytest.raises(ValueError):
            spec(densities=(10,), runs=0)
        with pytest.raises(ValueError):
            spec(densities=(10,), weight_low=5.0, weight_high=2.0)
        with pytest.raises(ValueError):
            spec(densities=(-3,))

    def test_with_overrides(self):
        spec = figure_spec(6, "quick").with_overrides(runs=7, seed=9)
        assert spec.runs == 7 and spec.seed == 9
        assert figure_spec(6, "quick").runs != 7


class TestStats:
    def test_summarize_basic(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.std == pytest.approx(1.2909944, rel=1e-6)
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        low, high = summary.confidence_interval()
        assert low < summary.mean < high

    def test_summarize_single_value(self):
        summary = summarize([5.0])
        assert summary.std == 0.0
        assert summary.stderr == 0.0

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary.count == 0
        assert math.isnan(summary.mean)
        assert all(math.isnan(v) for v in summary.confidence_interval())


class TestOverheadDefinition:
    def test_bandwidth_overhead_is_fraction_of_optimal_lost(self):
        assert qos_overhead(BandwidthMetric(), achieved=8.0, optimal=10.0) == pytest.approx(0.2)
        assert qos_overhead(BandwidthMetric(), achieved=10.0, optimal=10.0) == 0.0

    def test_delay_overhead_is_fraction_of_optimal_added(self):
        assert qos_overhead(DelayMetric(), achieved=12.0, optimal=10.0) == pytest.approx(0.2)
        assert qos_overhead(DelayMetric(), achieved=10.0, optimal=10.0) == 0.0

    def test_zero_optimal_yields_nan(self):
        assert math.isnan(qos_overhead(DelayMetric(), achieved=1.0, optimal=0.0))


class TestResultContainers:
    def _result(self):
        result = ExperimentResult(
            experiment_id="figX",
            title="demo",
            metric_name="bandwidth",
            x_label="density",
            y_label="value",
        )
        result.add_point("fnbp", SeriesPoint(density=10.0, summary=summarize([1.0, 2.0])))
        result.add_point("fnbp", SeriesPoint(density=20.0, summary=summarize([3.0])))
        result.add_point("qolsr-mpr2", SeriesPoint(density=10.0, summary=summarize([4.0])))
        result.add_note("a note")
        return result

    def test_series_access(self):
        result = self._result()
        assert result.densities() == [10.0, 20.0]
        assert result.series["fnbp"].mean_at(10.0) == pytest.approx(1.5)
        assert math.isnan(result.series["qolsr-mpr2"].mean_at(20.0))
        assert result.series["fnbp"].densities() == [10.0, 20.0]

    def test_table_rendering(self):
        table = self._result().to_table()
        assert "figX" in table and "density" in table
        assert "fnbp" in table and "qolsr-mpr2" in table
        assert "a note" in table

    def test_to_dict_round_trips_through_json(self):
        payload = json.dumps(self._result().to_dict())
        parsed = json.loads(payload)
        assert parsed["experiment_id"] == "figX"
        assert len(parsed["series"]["fnbp"]) == 2

    def test_reporting_helpers(self, tmp_path):
        results = {6: self._result()}
        text = render_report(results, header="profile=test")
        assert text.startswith("profile=test")
        report_path = write_report(results, tmp_path / "report.txt")
        assert report_path.read_text().startswith("profile=test") or "figX" in report_path.read_text()
        json_path = write_json(results, tmp_path / "results.json")
        assert "figX" in json.loads(json_path.read_text())


class TestTrialsAndSweeps:
    def test_build_trial_is_deterministic_and_connected(self):
        spec = figure_spec(6, "smoke")
        metric = BandwidthMetric()
        first = build_trial(spec, metric, spec.densities[0], 0)
        second = build_trial(spec, metric, spec.densities[0], 0)
        assert first.network.nodes() == second.network.nodes()
        assert first.network.links() == second.network.links()
        assert first.network.is_connected()
        first.network.validate_metric_coverage(metric)

    def test_trial_caches_views_and_selections(self):
        spec = figure_spec(6, "smoke")
        trial = build_trial(spec, BandwidthMetric(), spec.densities[0], 0)
        assert trial.views() is trial.views()
        assert trial.selections("fnbp") is trial.selections("fnbp")
        assert trial.advertised_topology("fnbp") is trial.advertised_topology("fnbp")

    def test_sampling_helpers(self):
        spec = figure_spec(6, "smoke")
        trial = build_trial(spec, BandwidthMetric(), spec.densities[0], 0)
        nodes = trial.sample_nodes(5, "test")
        assert len(nodes) == min(5, len(trial.network))
        assert set(nodes) <= set(trial.network.nodes())
        pairs = trial.sample_pairs(3)
        assert len(pairs) == 3
        assert all(s != d for s, d in pairs)

    def test_ans_size_experiment_produces_a_full_grid(self):
        spec = figure_spec(6, "smoke").with_overrides(experiment_id="fig6-test")
        result = run_experiment(spec)
        assert set(result.series) == set(spec.selectors)
        for series in result.series.values():
            assert [point.density for point in series.points] == list(spec.densities)
            for point in series.points:
                assert point.summary.count > 0
                assert point.summary.mean >= 0.0

    def test_overhead_experiment_produces_bounded_overheads(self):
        spec = figure_spec(9, "smoke").with_overrides(experiment_id="fig9-test")
        result = run_experiment(spec)
        assert result.metric_name == "delay"
        assert set(result.series) == set(spec.selectors)
        for series in result.series.values():
            for point in series.points:
                if point.summary.count:
                    assert point.summary.mean >= -1e-9
                assert 0.0 <= point.extra["delivery_ratio"] <= 1.0

    def test_progress_callback_is_invoked(self):
        messages = []
        run_experiment(figure_spec(6, "smoke"), sinks=[ProgressSink(messages.append)])
        assert messages and all("density" in message for message in messages)
