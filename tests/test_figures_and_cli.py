"""Tests for the per-figure entry points and the command-line interface."""

from __future__ import annotations

import importlib
import json
import tomllib
from pathlib import Path

import pytest

from repro.experiments import FIGURE_PRESETS, figure_spec, run_experiment
from repro.experiments import sweep_cli
from repro.experiments.sweep_cli import build_parser, main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


class TestFigureEntryPoints:
    def test_figure_registry_covers_the_evaluation_section(self):
        assert set(FIGURE_PRESETS) == {6, 7, 8, 9}

    def test_figure6_uses_bandwidth_and_figure7_uses_delay(self):
        result6 = run_experiment(figure_spec(6, "smoke"))
        result7 = run_experiment(figure_spec(7, "smoke"))
        assert result6.metric_name == "bandwidth"
        assert result7.metric_name == "delay"
        assert result6.experiment_id == "fig6"
        assert result7.experiment_id == "fig7"

    def test_figure8_and_figure9_report_overheads(self):
        result8 = run_experiment(figure_spec(8, "smoke"))
        result9 = run_experiment(figure_spec(9, "smoke"))
        assert "overhead" in result8.y_label
        assert result9.metric_name == "delay"


def _parser_error(argv, capsys) -> str:
    """Run ``main(argv)``, require a parser error (exit status 2) and return stderr."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    return capsys.readouterr().err


class _SpecRecorded(Exception):
    """Stops ``main`` once its stand-in sweep has recorded the spec it was handed."""


class TestCli:
    def test_parser_requires_a_figure_or_all(self, capsys):
        error = _parser_error([], capsys)
        assert "--figure" in error and "--all" in error
        args = build_parser().parse_args(["--figure", "6", "--profile", "smoke"])
        assert args.figure == 6 and args.profile == "smoke"

    def test_profile_applies_only_to_figures(self, capsys):
        assert "--profile applies only to --figure or --all" in _parser_error(
            ["--profile", "smoke"], capsys
        )
        assert "--profile" in _parser_error(["--preset", "fig6", "--profile", "smoke"], capsys)

    @pytest.mark.parametrize(
        "flag",
        [
            ("--id", "same"),
            ("--resume", "x.jsonl"),
            ("--jsonl", "x.jsonl"),
            ("--metrics-jsonl", "x.jsonl"),
            ("--profile-trials", "x.json"),
        ],
        ids=lambda flag: flag[0],
    )
    def test_all_rejects_what_names_a_single_sweep(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        error = _parser_error(["--all", *flag], capsys)
        assert "--all runs four sweeps" in error
        for name in ("--id", "--resume", "--jsonl", "--metrics-jsonl", "--profile-trials"):
            assert name in error
        assert list(tmp_path.iterdir()) == []  # rejected before any stream is opened

    @pytest.mark.parametrize(
        "argv",
        [
            ["--figure", "6", "--all"],
            ["--figure", "6", "--preset", "fig6"],
            ["--all", "--spec", "x.json"],
        ],
        ids=["figure-all", "figure-preset", "all-spec"],
    )
    def test_figure_and_all_exclude_the_other_sources(self, argv, capsys):
        assert "not allowed with argument" in _parser_error(argv, capsys)

    @pytest.mark.parametrize("number", sorted(FIGURE_PRESETS))
    def test_figure_runs_its_profile_spec_with_overrides_on_top(self, number, monkeypatch):
        """``--figure N`` sweeps ``figure_spec(N, profile)`` (profile ``quick`` unless
        given), with every override flag applied on top."""
        swept = []

        def record(spec, **kwargs):
            swept.append(spec)
            raise _SpecRecorded

        monkeypatch.setattr(sweep_cli, "run_experiment", record)
        for argv in (
            ["--figure", str(number)],
            ["--figure", str(number), "--profile", "smoke", "--runs", "2", "--seed", "11"],
        ):
            with pytest.raises(_SpecRecorded):
                main([*argv, "--quiet"])
        assert swept == [
            figure_spec(number, "quick"),
            figure_spec(number, "smoke").with_overrides(runs=2, seed=11),
        ]

    def test_all_prints_one_telemetry_summary_per_figure(self, capsys):
        assert main(["--all", "--profile", "smoke", "--quiet", "--metrics"]) == 0
        out = capsys.readouterr().out
        starts = [out.find(f"[fig{number}] telemetry summary") for number in (6, 7, 8, 9)]
        assert -1 not in starts and starts == sorted(starts)
        assert out.count("telemetry summary") == 4

    def test_every_console_script_imports_and_both_names_run_one_cli(self):
        scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
        targets = {}
        for name, target in scripts.items():
            module, _, attribute = target.partition(":")
            targets[name] = getattr(importlib.import_module(module), attribute)
            assert callable(targets[name]), name
        assert targets["repro-figures"] is targets["repro-sweep"] is main

    def test_cli_single_figure_with_outputs(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        json_output = tmp_path / "results.json"
        exit_code = main(
            [
                "--figure",
                "6",
                "--profile",
                "smoke",
                "--quiet",
                "--output",
                str(output),
                "--json",
                str(json_output),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "fig6" in printed
        assert "fig6" in output.read_text()
        assert "fig6" in json.loads(json_output.read_text())

    def test_cli_overrides_runs_and_seed(self, capsys):
        exit_code = main(["--figure", "7", "--profile", "smoke", "--runs", "1", "--seed", "7", "--quiet"])
        assert exit_code == 0
        assert "fig7" in capsys.readouterr().out
