"""Differential pin: the preset-driven CLI reproduces the pre-redesign output byte-for-byte.

``tests/data/golden_smoke_report.txt`` and ``tests/data/golden_smoke_results.json`` were
captured from ``repro-figures --all --profile smoke`` *before* the ExperimentSpec/registry/
sink redesign (serial and ``REPRO_WORKERS=2`` outputs were verified identical at capture
time).  These tests assert the redesigned pipeline -- presets -> spec -> generic engine ->
sinks -- still emits exactly those bytes, serially and through the multiprocessing path.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.sweep_cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_REPORT = DATA / "golden_smoke_report.txt"
GOLDEN_JSON = DATA / "golden_smoke_results.json"


@pytest.mark.parametrize("workers", [None, "2"], ids=["serial", "REPRO_WORKERS=2"])
def test_all_figures_smoke_output_is_byte_identical_to_pre_redesign(tmp_path, monkeypatch, capsys, workers):
    if workers is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", workers)

    output = tmp_path / "report.txt"
    json_output = tmp_path / "results.json"
    exit_code = main(
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
    assert exit_code == 0

    assert output.read_bytes() == GOLDEN_REPORT.read_bytes()
    assert json_output.read_bytes() == GOLDEN_JSON.read_bytes()
    # What the CLI prints is the same report (print appends one newline).
    assert capsys.readouterr().out == GOLDEN_REPORT.read_text() + "\n"
