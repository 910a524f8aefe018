"""The generic, spec-driven experiment engine.

:func:`run_experiment` executes any :class:`~repro.experiments.spec.ExperimentSpec` -- it
resolves the spec's registry names (measure kind, metric, topology model, selectors; see
:mod:`repro.registry`), fans each density's trials over the runner (serially or across
``REPRO_WORKERS`` processes, bit-identically either way), folds the trial payloads through
the measure's streaming aggregation, and emits the event stream to any number of
:class:`~repro.experiments.sinks.ResultSink` instances.  Every figure preset, every
``repro-sweep`` invocation and every future measure kind runs through this one function;
the trials of a density carry the spec itself to the workers.

Crash resilience is layered on top of the same determinism that makes parallelism
bit-identical:

* the runner supervises trials (retry with backoff on raises, timeouts and killed
  workers; see :func:`repro.experiments.runner.map_trials`);
* a trial that exhausts its retries either aborts the sweep (``on_error="fail"``, the
  default -- byte-identical to the pre-supervision engine on healthy runs) or becomes a
  structured ``on_trial_error`` sink event, with the density's failure count recorded in
  each of its points' ``extra["failed_trials"]`` (``on_error="skip"``);
* a sink whose handler raises is quarantined -- dropped from the sweep with an
  ``on_warning`` event to the surviving sinks -- instead of killing the run;
* ``resume_from`` accepts a :class:`~repro.experiments.checkpoint.Checkpoint` (or the
  path of a ``jsonl`` stream): finished densities are skipped, their trial and density
  events re-emitted from the checkpoint, so sinks -- including a fresh ``jsonl`` sink
  writing the same path -- observe exactly the stream of an uninterrupted run.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.experiments.checkpoint import Checkpoint, load_checkpoint, spec_hash
from repro.experiments.results import ExperimentResult, SeriesPoint
from repro.experiments.runner import TrialFailure, map_trials
from repro.experiments.sinks import ResultSink
from repro.experiments.spec import ExperimentSpec
from repro.obs import runtime as obs
from repro.obs.registry import MetricsRegistry, merge_trial, unwrap_payload
from repro.registry import MEASURES, METRICS


class _SinkCrew:
    """Event dispatcher that quarantines raising sinks instead of dying with them.

    A sink that raises from any handler is removed from the crew; the survivors get an
    ``on_warning`` event (and a Python :class:`RuntimeWarning` is emitted, so the
    quarantine is visible even with no surviving sinks).  ``KeyboardInterrupt`` and other
    non-``Exception`` signals propagate -- quarantine is for broken sinks, not for the
    user's ctrl-C.
    """

    def __init__(self, sinks: Iterable[ResultSink], spec) -> None:
        self._sinks: List[ResultSink] = list(sinks)
        self._spec = spec

    def emit(self, handler: str, *args) -> None:
        with obs.span("sink_flush"):
            for sink in list(self._sinks):
                try:
                    getattr(sink, handler)(*args)
                except Exception as exc:  # noqa: BLE001 - quarantine any broken sink
                    self._sinks.remove(sink)
                    message = (
                        f"sink {type(sink).__name__} raised {type(exc).__name__} ({exc}) in "
                        f"{handler} and was quarantined; the sweep continues without it"
                    )
                    warnings.warn(message, RuntimeWarning, stacklevel=2)
                    self.emit("on_warning", self._spec, message)


def _resolve_checkpoint(
    resume_from: Union[Checkpoint, str, Path, None], spec: ExperimentSpec
) -> Optional[Checkpoint]:
    """Load/validate the resume source; the spec-hash guard refuses a mismatched spec."""
    if resume_from is None:
        return None
    checkpoint = resume_from if isinstance(resume_from, Checkpoint) else load_checkpoint(resume_from)
    running = spec_hash(spec)
    if checkpoint.spec_hash != running:
        raise ValueError(
            f"refusing to resume: the checkpoint was written by a different spec "
            f"(checkpoint spec-hash {checkpoint.spec_hash[:12]}..., this sweep "
            f"{running[:12]}...); resume with the identical spec or start a fresh sweep"
        )
    return checkpoint


def run_experiment(
    spec: ExperimentSpec,
    sinks: Iterable[ResultSink] = (),
    workers: Optional[int] = None,
    resume_from: Union[Checkpoint, str, Path, None] = None,
    on_error: str = "fail",
    metrics: Optional[bool] = None,
) -> ExperimentResult:
    """Run the sweep described by ``spec`` and return its :class:`ExperimentResult`.

    ``sinks`` receive the streaming events (see the contract in
    :mod:`repro.experiments.sinks`); the engine does not close them.  ``workers`` (default:
    the ``REPRO_WORKERS`` environment variable) fans the trials of each density out over
    worker processes; aggregation happens in run order either way, so the output is
    identical to a serial run.

    ``resume_from`` (a :class:`Checkpoint` or the path of a ``jsonl`` stream) skips the
    densities the checkpoint already finished, re-emitting their events so the sink
    stream -- and with it every output file -- is byte-identical to an uninterrupted run;
    a checkpoint written by a different spec is refused.  ``on_error`` decides the fate of
    a trial whose retries are exhausted: ``"fail"`` (default) raises
    :class:`~repro.experiments.runner.TrialExecutionError`, ``"skip"`` records an
    ``on_trial_error`` event plus a per-point ``extra["failed_trials"]`` count and lets
    the sweep complete.

    ``metrics`` (default: the ``REPRO_METRICS`` environment variable, i.e. off) enables
    the telemetry layer: trials run under per-trial
    :class:`~repro.obs.registry.MetricsRegistry` instances whose snapshots are merged --
    in run order, hence bit-identically serial vs parallel -- into a run registry, and
    cumulative snapshots are emitted as ``on_metrics`` sink events (one after every
    ``on_density``, one final run-total with ``density=None`` before ``on_result``).
    With telemetry off the engine, its events and every output are byte-identical to the
    un-instrumented engine; see ``docs/observability.md`` for the taxonomy and contract.
    """
    spec.validate_names()
    measure = MEASURES.create(spec.measure)
    measure.validate_spec(spec)
    metric = METRICS.create(spec.metric)
    checkpoint = _resolve_checkpoint(resume_from, spec)
    metrics = obs.resolve_metrics(metrics)
    registry = MetricsRegistry() if metrics else None
    crew = _SinkCrew(sinks, spec)

    result = ExperimentResult(
        experiment_id=spec.experiment_id,
        title=spec.title,
        metric_name=metric.name,
        x_label=measure.x_label,
        y_label=measure.y_label(metric),
    )

    # With telemetry on, the run registry is installed as the parent process's ambient
    # registry for the whole sweep, so parent-side instrumentation (supervisor retries,
    # sink-flush spans) records alongside the merged per-trial snapshots.  Restored in
    # the finally even when a sweep aborts, so no registry leaks across runs.
    previous_registry = obs.install(registry) if registry is not None else None
    try:
        crew.emit("on_sweep_start", spec)

        state = measure.start(spec)
        per_trial = measure.per_trial()
        per_density: Dict[float, Dict[str, SeriesPoint]] = {}
        for density in spec.densities:
            finished = checkpoint.densities.get(density) if checkpoint is not None else None
            if finished is not None:
                # Replay the finished density from the checkpoint: same trial events (the
                # progress message is re-derived from the recorded payload), same points, no
                # recomputation.  Payloads are not re-folded through the measure -- the
                # density's points are already aggregated and every built-in measure
                # aggregates strictly per density.  (Checkpoints carry no telemetry, so a
                # resumed run's counters cover only the densities it recomputes.)
                for run_index, record in finished.trials:
                    if isinstance(record, TrialFailure):
                        crew.emit("on_trial_error", spec, density, run_index, record)
                    else:
                        message = measure.progress_line(
                            spec.experiment_id, spec.runs, density, run_index, record
                        )
                        crew.emit("on_trial", spec, density, run_index, record, message)
                per_density[density] = finished.points
                crew.emit("on_density", spec, density, finished.points)
                if registry is not None:
                    crew.emit("on_metrics", spec, {"density": density, **registry.snapshot()})
                continue

            def on_result(run_index: int, payload, density: float = density) -> None:
                # Trial telemetry envelopes are merged exactly here -- once per trial, in
                # run order -- which is what makes the run registry's deterministic
                # sections bit-identical serial vs REPRO_WORKERS=N.
                payload = merge_trial(registry, payload)
                if isinstance(payload, TrialFailure):
                    crew.emit("on_trial_error", spec, density, run_index, payload)
                    return
                message = measure.progress_line(spec.experiment_id, spec.runs, density, run_index, payload)
                crew.emit("on_trial", spec, density, run_index, payload, message)

            payloads = map_trials(
                spec,
                metric,
                density,
                per_trial,
                workers=workers,
                on_result=on_result,
                on_error=on_error,
                metrics=registry is not None,
            )
            payloads = [unwrap_payload(payload) for payload in payloads]
            failures = [payload for payload in payloads if isinstance(payload, TrialFailure)]
            for payload in payloads:
                if not isinstance(payload, TrialFailure):
                    measure.consume(state, density, payload)
            points = measure.density_points(state, spec, density)
            if failures:
                points = {
                    name: replace(
                        point, extra={**dict(point.extra), "failed_trials": float(len(failures))}
                    )
                    for name, point in points.items()
                }
            per_density[density] = points
            if registry is not None:
                registry.count("engine.densities_completed")
            crew.emit("on_density", spec, density, points)
            if registry is not None:
                crew.emit("on_metrics", spec, {"density": density, **registry.snapshot()})

        # Assemble the monolithic result in the classic order (selector-major, density-minor),
        # which keeps its tables and JSON byte-identical to the pre-engine harnesses.
        for selector_name in spec.selectors:
            for density in spec.densities:
                result.add_point(selector_name, per_density[density][selector_name])
        for note in measure.notes(spec):
            result.add_note(note)

        if registry is not None:
            # The run-total snapshot (density=None) -- what the text sink's summary table
            # and --profile-trials render.
            crew.emit("on_metrics", spec, {"density": None, **registry.snapshot()})
        crew.emit("on_result", result)
        return result
    finally:
        if registry is not None:
            obs.install(previous_registry)
