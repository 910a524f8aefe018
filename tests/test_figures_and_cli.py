"""Tests for the per-figure entry points and the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.experiments import FIGURE_PRESETS, figure_spec, run_experiment
from repro.experiments.cli import build_parser, main


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


class TestCli:
    def test_parser_requires_a_figure_or_all(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])
        args = parser.parse_args(["--figure", "6", "--profile", "smoke"])
        assert args.figure == 6 and args.profile == "smoke"

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
