"""The evaluation harness: spec-driven density sweeps, with the paper's Figures 6-9 as presets.

The scenario API in one sentence: a frozen, JSON-round-trippable
:class:`~repro.experiments.spec.ExperimentSpec` names every ingredient of a sweep (measure
kind, metric, selectors, topology model -- all resolved against the unified registries in
:mod:`repro.registry`), the generic :func:`~repro.experiments.engine.run_experiment` engine
executes any spec, and results stream through
:class:`~repro.experiments.sinks.ResultSink` consumers (text report, JSON, incremental
JSONL checkpoints, progress lines) besides materializing an
:class:`~repro.experiments.results.ExperimentResult`.
"""

from repro.experiments.checkpoint import (
    Checkpoint,
    CheckpointError,
    DensityCheckpoint,
    load_checkpoint,
    spec_hash,
)
from repro.experiments.engine import run_experiment
from repro.experiments.measures import AnsSizeMeasure, Measure, OverheadMeasure, qos_overhead
from repro.experiments.presets import (
    BANDWIDTH_DENSITIES,
    DELAY_DENSITIES,
    FIGURE_PRESETS,
    PROFILES,
    figure_spec,
)
from repro.experiments.reporting import render_report, write_json, write_report
from repro.experiments.results import ExperimentResult, Series, SeriesPoint
from repro.experiments.runner import (
    Trial,
    TrialExecutionError,
    TrialFailure,
    build_trial,
    iter_trials,
    map_trials,
)
from repro.experiments.sinks import (
    JsonlSink,
    JsonSink,
    MemorySink,
    ProgressSink,
    ResultSink,
    TextReportSink,
)
from repro.experiments.spec import PAPER_SELECTORS, ExperimentSpec
from repro.experiments.stats import Summary, summarize

__all__ = [
    "ExperimentSpec",
    "run_experiment",
    "Measure",
    "AnsSizeMeasure",
    "OverheadMeasure",
    "ResultSink",
    "ProgressSink",
    "MemorySink",
    "TextReportSink",
    "JsonSink",
    "JsonlSink",
    "FIGURE_PRESETS",
    "figure_spec",
    "PROFILES",
    "BANDWIDTH_DENSITIES",
    "DELAY_DENSITIES",
    "PAPER_SELECTORS",
    "qos_overhead",
    "ExperimentResult",
    "Series",
    "SeriesPoint",
    "Summary",
    "summarize",
    "Trial",
    "TrialFailure",
    "TrialExecutionError",
    "build_trial",
    "iter_trials",
    "map_trials",
    "Checkpoint",
    "CheckpointError",
    "DensityCheckpoint",
    "load_checkpoint",
    "spec_hash",
    "render_report",
    "write_report",
    "write_json",
]
