"""Tests for the repro-sweep CLI, the streaming sink API and the figure-source overrides."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import sweep_cli
from repro.experiments.engine import run_experiment
from repro.experiments.reporting import render_report, write_json, write_report
from repro.experiments.sinks import JsonlSink, JsonSink, MemorySink, ProgressSink, TextReportSink
from repro.experiments.spec import ExperimentSpec

EXAMPLE_SPEC = Path(__file__).resolve().parent.parent / "examples" / "specs" / "custom_delay_sweep.json"


def _tiny_spec(**overrides) -> ExperimentSpec:
    spec = ExperimentSpec.load(EXAMPLE_SPEC)
    return spec.with_overrides(**overrides) if overrides else spec


class TestSweepCliParsing:
    def test_spec_and_preset_are_mutually_exclusive(self):
        parser = sweep_cli.build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--spec", "a.json", "--preset", "fig6"])

    def test_override_flags_parse(self):
        args = sweep_cli.build_parser().parse_args(
            [
                "--preset",
                "fig6",
                "--densities",
                "10,15.5",
                "--selectors",
                "fnbp,olsr-mpr",
                "--node-sample",
                "all",
                "--runs",
                "3",
            ]
        )
        assert args.densities == (10.0, 15.5)
        assert args.selectors == ("fnbp", "olsr-mpr")
        assert args.node_sample is None
        assert args.runs == 3

    def test_density_and_list_parsers_reject_garbage(self):
        with pytest.raises(Exception):
            sweep_cli.parse_densities("10,abc")
        with pytest.raises(Exception):
            sweep_cli.parse_densities(",")
        with pytest.raises(Exception):
            sweep_cli.parse_name_list(" , ")
        with pytest.raises(Exception):
            sweep_cli.parse_node_sample("many")
        assert sweep_cli.parse_node_sample("0") is None
        assert sweep_cli.parse_node_sample("25") == 25

    def test_without_spec_or_preset_minimum_fields_are_required(self, capsys):
        with pytest.raises(SystemExit):
            sweep_cli.main(["--metric", "delay"])
        assert "--measure" in capsys.readouterr().err

    def test_unknown_registry_name_is_a_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit):
            sweep_cli.main(["--preset", "fig6", "--metric", "throughput", "--quiet"])
        assert "metric registry" in capsys.readouterr().err

    def test_list_prints_every_registry_section(self, capsys):
        assert sweep_cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        for section in ("measures", "metrics", "selectors", "topology-models", "sinks", "presets"):
            assert section in out
        assert "fnbp" in out and "poisson" in out and "jsonl" in out

    def test_list_output_is_pinned_to_the_committed_golden(self, capsys):
        """``--list`` is deterministically ordered (sorted sections, sorted entries) and
        byte-identical to ``tests/data/sweep_list_golden.txt``; registering or renaming an
        entry must update the golden, which documents every extension point's surface."""
        golden = Path(__file__).resolve().parent / "data" / "sweep_list_golden.txt"
        assert sweep_cli.main(["--list"]) == 0
        assert capsys.readouterr().out == golden.read_text()
        assert sweep_cli.render_registries() + "\n" == golden.read_text()

    def test_timestep_flags_parse_and_reach_the_spec(self):
        args = sweep_cli.build_parser().parse_args(
            ["--preset", "mobility-churn", "--timesteps", "5", "--step-interval", "0.5"]
        )
        assert args.timesteps == 5 and args.step_interval == 0.5
        spec = sweep_cli._apply_overrides(sweep_cli._base_spec(args, sweep_cli.build_parser()), args)
        assert spec.timesteps == 5 and spec.step_interval == 0.5


class TestSweepCliEndToEnd:
    def test_example_spec_runs_with_all_sinks(self, tmp_path, capsys):
        """The acceptance sweep: custom densities x delay metric x a selector subset, from a
        committed JSON spec, streaming to a JSONL sink -- none of which the pre-redesign
        harness could express without editing source."""
        output = tmp_path / "report.txt"
        json_output = tmp_path / "results.json"
        jsonl_output = tmp_path / "events.jsonl"
        exit_code = sweep_cli.main(
            [
                "--spec",
                str(EXAMPLE_SPEC),
                "--quiet",
                "--output",
                str(output),
                "--json",
                str(json_output),
                "--jsonl",
                str(jsonl_output),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "custom-delay" in printed

        spec = _tiny_spec()
        assert spec.experiment_id in output.read_text()
        payload = json.loads(json_output.read_text())
        assert set(payload) == {spec.experiment_id}
        assert set(payload[spec.experiment_id]["series"]) == set(spec.selectors)

        events = [json.loads(line) for line in jsonl_output.read_text().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "sweep_start" and kinds[-1] == "result"
        assert kinds.count("density") == len(spec.densities)
        assert kinds.count("trial") == len(spec.densities) * spec.runs
        # Events arrive in sweep order: every trial of a density precedes its density line.
        assert kinds.index("density") > kinds.index("trial")
        assert events[0]["spec"] == spec.to_dict()

    def test_mobility_example_spec_streams_per_timestep_points(self, tmp_path):
        """The committed dynamic-sweep example (also smoke-run in CI): a random-waypoint
        churn sweep whose density checkpoints carry per-timestep curves."""
        spec_path = EXAMPLE_SPEC.parent / "mobility_churn_sweep.json"
        jsonl_output = tmp_path / "events.jsonl"
        exit_code = sweep_cli.main(
            ["--spec", str(spec_path), "--quiet", "--jsonl", str(jsonl_output)]
        )
        assert exit_code == 0
        spec = ExperimentSpec.load(spec_path)
        events = [json.loads(line) for line in jsonl_output.read_text().splitlines()]
        assert events[0]["spec"]["timesteps"] == spec.timesteps > 0
        density_events = [event for event in events if event["event"] == "density"]
        assert len(density_events) == len(spec.densities)
        for event in density_events:
            for name in spec.selectors:
                point = event["series"][name]
                assert len(point["per_step_mean"]) == spec.timesteps
        assert events[-1]["event"] == "result"

    def test_preset_with_overrides_runs(self, tmp_path):
        json_output = tmp_path / "results.json"
        exit_code = sweep_cli.main(
            [
                "--preset",
                "fig6",
                "--quiet",
                "--densities",
                "8",
                "--runs",
                "1",
                "--node-sample",
                "10",
                "--json",
                str(json_output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_output.read_text())
        assert set(payload) == {"fig6"}
        assert [point["density"] for point in payload["fig6"]["series"]["fnbp"]] == [8.0]

    def test_spec_built_from_scratch_with_flags_only(self, tmp_path):
        """A sweep assembled purely from flags: new metric family, selector subset."""
        json_output = tmp_path / "results.json"
        exit_code = sweep_cli.main(
            [
                "--measure",
                "ans-size",
                "--metric",
                "jitter",
                "--densities",
                "5",
                "--runs",
                "1",
                "--node-sample",
                "10",
                "--selectors",
                "fnbp,olsr-mpr",
                "--id",
                "jitter-ans",
                "--quiet",
                "--json",
                str(json_output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_output.read_text())
        assert set(payload) == {"jitter-ans"}
        assert payload["jitter-ans"]["metric"] == "jitter"
        assert set(payload["jitter-ans"]["series"]) == {"fnbp", "olsr-mpr"}

    def test_cli_overrides_change_the_executed_spec(self, tmp_path):
        json_output = tmp_path / "results.json"
        exit_code = sweep_cli.main(
            [
                "--spec",
                str(EXAMPLE_SPEC),
                "--quiet",
                "--id",
                "renamed",
                "--densities",
                "6",
                "--selectors",
                "fnbp",
                "--json",
                str(json_output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_output.read_text())
        assert set(payload) == {"renamed"}
        assert set(payload["renamed"]["series"]) == {"fnbp"}
        assert [point["density"] for point in payload["renamed"]["series"]["fnbp"]] == [6.0]


class TestSinks:
    def test_text_and_json_sinks_match_reporting_helpers(self, tmp_path):
        spec = _tiny_spec()
        text_sink = TextReportSink(tmp_path / "sink.txt", header="spec=custom-delay")
        json_sink = JsonSink(tmp_path / "sink.json")
        memory = MemorySink()
        result = run_experiment(spec, sinks=(text_sink, json_sink, memory))
        for sink in (text_sink, json_sink, memory):
            sink.close()

        assert memory.results == [result]
        write_report([result], tmp_path / "helper.txt", header="spec=custom-delay")
        write_json([result], tmp_path / "helper.json")
        assert (tmp_path / "sink.txt").read_text() == (tmp_path / "helper.txt").read_text()
        assert (tmp_path / "sink.json").read_text() == (tmp_path / "helper.json").read_text()

    def test_jsonl_sink_checkpoints_each_density_incrementally(self, tmp_path):
        """After every density event the finished densities are already on disk -- the
        property that makes long paper-profile runs resumable from their sink file."""
        spec = _tiny_spec()
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, trials=False)

        seen_on_disk = []
        original = sink.on_density

        def checking_on_density(spec_arg, density, points):
            original(spec_arg, density, points)
            on_disk = [json.loads(line) for line in path.read_text().splitlines()]
            seen_on_disk.append([e["density"] for e in on_disk if e["event"] == "density"])

        sink.on_density = checking_on_density
        run_experiment(spec, sinks=(sink,))
        sink.close()
        assert seen_on_disk == [[6.0], [6.0, 9.0]]

    def test_progress_lines_are_sink_events(self):
        spec = _tiny_spec()
        messages = []
        run_experiment(spec, sinks=(ProgressSink(messages.append),))
        assert messages and all("density=" in message for message in messages)

    def test_stderr_progress_sink_and_context_manager(self, capsys):
        from repro.experiments.sinks import stderr_progress_sink

        with stderr_progress_sink() as sink:
            sink.on_trial(None, 1.0, 0, {}, "a progress line")
            sink.on_trial(None, 1.0, 1, {}, None)
        assert capsys.readouterr().err == "a progress line\n"

    def test_render_report_reuses_result_tables(self):
        spec = _tiny_spec()
        result = run_experiment(spec)
        report = render_report([result], header="h")
        assert report.startswith("h\n")
        assert result.to_table() in report


class TestFailedRunsDoNotClobberOutputs:
    def test_figures_cli_failure_leaves_existing_files_untouched(self, tmp_path, monkeypatch):
        """A failure in the third figure of ``--all``, after two figures fed the report
        sinks, writes neither report."""
        output = tmp_path / "report.txt"
        json_output = tmp_path / "results.json"
        output.write_bytes(b"previous good report")
        json_output.write_bytes(b'{"previous": "good"}')
        started = []

        def failing_third_figure(spec, **kwargs):
            started.append(spec.experiment_id)
            if len(started) == 3:
                raise RuntimeError("died in the third figure")
            return run_experiment(spec, **kwargs)

        monkeypatch.setattr(sweep_cli, "run_experiment", failing_third_figure)
        with pytest.raises(RuntimeError):
            sweep_cli.main(
                [
                    "--all",
                    "--profile",
                    "smoke",
                    "--quiet",
                    "--output",
                    str(output),
                    "--json",
                    str(json_output),
                ]
            )
        assert started == ["fig6", "fig7", "fig8"]
        assert output.read_bytes() == b"previous good report"
        assert json_output.read_bytes() == b'{"previous": "good"}'

    def test_sweep_cli_failure_keeps_reports_but_flushes_jsonl_checkpoints(self, tmp_path, monkeypatch):
        output = tmp_path / "report.txt"
        jsonl_output = tmp_path / "events.jsonl"
        output.write_text("previous good report")

        def exploding_run_experiment(spec, sinks=(), workers=None, **kwargs):
            for sink in sinks:
                sink.on_sweep_start(spec)
            raise RuntimeError("died mid-sweep")

        monkeypatch.setattr(sweep_cli, "run_experiment", exploding_run_experiment)
        with pytest.raises(RuntimeError):
            sweep_cli.main(
                [
                    "--spec",
                    str(EXAMPLE_SPEC),
                    "--quiet",
                    "--output",
                    str(output),
                    "--jsonl",
                    str(jsonl_output),
                ]
            )
        assert output.read_text() == "previous good report"
        events = [json.loads(line) for line in jsonl_output.read_text().splitlines()]
        assert [event["event"] for event in events] == ["sweep_start"]


class TestFiguresCliOverrides:
    def test_parser_accepts_densities_and_node_sample(self):
        parser = sweep_cli.build_parser()
        args = parser.parse_args(
            ["--figure", "6", "--densities", "8,12", "--node-sample", "10"]
        )
        assert args.densities == (8.0, 12.0)
        assert args.node_sample == 10
        defaults = parser.parse_args(["--figure", "6"])
        assert defaults.densities is None
        assert defaults.node_sample is sweep_cli.NODE_SAMPLE_UNSET

    def test_density_override_reaches_the_sweep(self, tmp_path, capsys):
        json_output = tmp_path / "results.json"
        exit_code = sweep_cli.main(
            [
                "--figure",
                "6",
                "--profile",
                "smoke",
                "--quiet",
                "--densities",
                "7",
                "--node-sample",
                "10",
                "--json",
                str(json_output),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        payload = json.loads(json_output.read_text())
        densities = [point["density"] for point in payload["fig6"]["series"]["fnbp"]]
        assert densities == [7.0]
        assert "sample of up to 10 nodes" in "\n".join(payload["fig6"]["notes"])

    def test_figure_metric_comes_from_its_preset(self):
        from repro.experiments.presets import figure_spec

        assert [figure_spec(n).metric for n in (6, 7, 8, 9)] == [
            "bandwidth",
            "delay",
            "bandwidth",
            "delay",
        ]
