"""Streaming result sinks.

The generic engine (:func:`repro.experiments.engine.run_experiment`) does not only
materialize a monolithic :class:`ExperimentResult` at the end of a sweep -- while running it
emits a stream of events to any number of :class:`ResultSink` instances.  That is what
per-density checkpointing and long paper-profile runs need: with a :class:`JsonlSink`
attached, a sweep that dies at density 25 leaves every finished density on disk.

Sink contract
-------------
For each experiment the engine calls, in order:

1. ``on_sweep_start(spec)`` -- once, before any trial runs.
2. ``on_trial(spec, density, run_index, payload, message)`` -- once per trial, in run
   order (also under ``REPRO_WORKERS`` parallelism; the engine re-serializes events).
   ``payload`` is the measure's plain-data trial measurement; ``message`` is the measure's
   human-readable progress line or ``None``.  Progress reporting *is* this event: a
   :class:`ProgressSink` forwards it to any writer callable.
   Under ``on_error="skip"`` a trial that exhausted its retries emits
   ``on_trial_error(spec, density, run_index, failure)`` in its slot instead (``failure``
   is a :class:`~repro.experiments.runner.TrialFailure`).
3. ``on_density(spec, density, points)`` -- once per density, as soon as it is fully
   aggregated, with ``{selector_name: SeriesPoint}``.
4. ``on_metrics(spec, snapshot)`` -- only when telemetry is enabled (``--metrics`` /
   ``REPRO_METRICS`` / ``run_experiment(metrics=True)``): a cumulative
   :class:`~repro.obs.registry.MetricsRegistry` snapshot immediately after each
   ``on_density`` (``snapshot["density"]`` names the density) and one final run-total
   with ``density=None`` just before ``on_result``.  See ``docs/observability.md``.
5. ``on_result(result)`` -- once, with the complete :class:`ExperimentResult`.

``on_warning(spec, message)`` may interleave anywhere after ``on_sweep_start``: the engine
emits it when it quarantines a raising sink (see below).  A sink whose handler raises is
*quarantined*, not fatal -- the engine drops it from the sweep and tells the surviving
sinks via ``on_warning``, so one broken consumer cannot kill a long run.

``close()`` is called by whoever created the sink, not by the engine -- one sink may span
several experiments (``repro-sweep --all`` feeds all four figures through the same
text/JSON sinks).  The CLI closes the buffered report sinks only after a fully successful
run (so a failure never clobbers existing output files with a partial report) but close
the incremental JSONL sink unconditionally (its per-density checkpoints surviving a dead
run is the point).  Every handler has a no-op default, so a sink overrides only what it
consumes.  Sinks must not mutate ``spec``, ``payload`` or ``points``.

Built-ins (registered in :data:`repro.registry.SINKS`): ``text`` writes the fixed-width
report at close, ``json`` the results-keyed JSON document at close, ``jsonl`` one
self-describing JSON line per event *incrementally* (flushed per line), ``progress``
forwards progress messages to a writer callable, and ``metrics`` streams the telemetry
snapshots of ``on_metrics`` as their own JSONL file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO, Union

from repro.experiments.reporting import render_report, write_json, write_report
from repro.experiments.results import ExperimentResult, SeriesPoint
from repro.obs.report import render_metrics_summary
from repro.registry import SINKS


class ResultSink:
    """Base class of every streaming result consumer (all handlers default to no-ops)."""

    def on_sweep_start(self, spec) -> None:
        pass

    def on_trial(self, spec, density: float, run_index: int, payload: dict, message: Optional[str]) -> None:
        pass

    def on_trial_error(self, spec, density: float, run_index: int, failure) -> None:
        """One trial exhausted its retries (``failure`` is a ``TrialFailure``)."""

    def on_warning(self, spec, message: str) -> None:
        """A non-fatal engine warning (e.g. another sink was quarantined)."""

    def on_density(self, spec, density: float, points: Dict[str, SeriesPoint]) -> None:
        pass

    def on_metrics(self, spec, snapshot: dict) -> None:
        """A cumulative telemetry snapshot (only emitted when telemetry is enabled)."""

    def on_result(self, result: ExperimentResult) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _format_duration(seconds: float) -> str:
    """A short human-readable duration (``42.3s``, ``3m05s``, ``2h14m``)."""
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


@SINKS.register("progress", description="forwards per-trial progress lines to a writer callable")
class ProgressSink(ResultSink):
    """Adapter from the trial event stream to a ``write(message)`` callable.

    This is how progress reporting rides on the sink API: the CLI builds one writing to
    stderr unless ``--quiet``.

    With ``throughput=True`` (on for the CLI's stderr sink) each finished density also
    reports the sweep's trials/sec and an ETA extrapolated from the completed densities'
    share of wall-clock time.  Off by default: the numbers are wall-clock, so enabling
    them makes otherwise-identical runs' progress streams differ (everything else a
    ``ProgressSink`` writes is deterministic).  ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        write: Callable[[str], None],
        throughput: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.write = write
        self.throughput = throughput
        self.clock = clock
        self._started: Optional[float] = None
        self._trials_seen = 0
        self._densities_done = 0
        self._densities_total = 0

    def on_sweep_start(self, spec) -> None:
        if self.throughput:
            self._started = self.clock()
            self._trials_seen = 0
            self._densities_done = 0
            self._densities_total = len(spec.densities)

    def on_trial(self, spec, density, run_index, payload, message) -> None:
        self._trials_seen += 1
        if message is not None:
            self.write(message)

    def on_trial_error(self, spec, density, run_index, failure) -> None:
        self._trials_seen += 1
        self.write(
            f"[{spec.experiment_id}] density={density:g} run={run_index + 1} FAILED "
            f"after {failure.attempts} attempt(s): {failure.error_type}: {failure.error}"
        )

    def on_warning(self, spec, message) -> None:
        self.write(f"warning: {message}")

    def on_density(self, spec, density, points) -> None:
        if not self.throughput or self._started is None:
            return
        self._densities_done += 1
        elapsed = max(self.clock() - self._started, 1e-9)
        rate = self._trials_seen / elapsed
        remaining = self._densities_total - self._densities_done
        eta = (elapsed / self._densities_done) * remaining
        self.write(
            f"[{spec.experiment_id}] density={density:g} finished "
            f"({self._densities_done}/{self._densities_total} densities) | "
            f"{rate:.1f} trials/s | ETA {_format_duration(eta)}"
        )


class MemorySink(ResultSink):
    """Collects every completed :class:`ExperimentResult` in ``results`` (mainly for tests)."""

    def __init__(self) -> None:
        self.results: List[ExperimentResult] = []

    def on_result(self, result: ExperimentResult) -> None:
        self.results.append(result)


@SINKS.register("text", description="fixed-width text report, written when the sink closes")
class TextReportSink(MemorySink):
    """Accumulates results and writes the stitched text report (as ``write_report``) at close.

    When telemetry is enabled the run-total ``on_metrics`` snapshot of each experiment is
    appended below the report as a human-readable summary table; with telemetry off (no
    ``on_metrics`` events) the written file is byte-identical to the classic report.
    """

    def __init__(self, path: Union[str, Path], header: str = "") -> None:
        super().__init__()
        self.path = Path(path)
        self.header = header
        self._metrics: Dict[str, dict] = {}

    def on_metrics(self, spec, snapshot) -> None:
        # Snapshots are cumulative; keeping the latest per experiment leaves the
        # run-total (density=None) one in place at close.
        self._metrics[spec.experiment_id] = snapshot

    def close(self) -> None:
        if not self._metrics:
            write_report(self.results, self.path, header=self.header)
            return
        sections = [render_report(self.results, header=self.header).rstrip("\n")]
        for experiment_id in sorted(self._metrics):
            summary = render_metrics_summary(self._metrics[experiment_id])
            sections.append(f"[{experiment_id}] {summary}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("\n\n".join(sections) + "\n", encoding="utf-8")


@SINKS.register("json", description="results keyed by experiment id as one JSON document at close")
class JsonSink(MemorySink):
    """Accumulates results and writes the experiment-keyed JSON document (as ``write_json``)
    at close."""

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)

    def close(self) -> None:
        write_json(self.results, self.path)


@SINKS.register("jsonl", description="one JSON line per event, flushed incrementally (checkpointing)")
class JsonlSink(ResultSink):
    """Appends one self-describing JSON line per event, flushed as soon as it happens.

    Event lines (each carries ``event`` and ``experiment_id``):

    * ``sweep_start`` -- the full spec (``spec``), so the file is self-contained;
    * ``trial`` -- ``density``, ``run`` and the raw measure ``payload``;
    * ``trial_error`` -- a trial that exhausted its retries under ``on_error="skip"``
      (``density``, ``run``, ``error``, ``error_type``, ``attempts``);
    * ``warning`` -- a non-fatal engine warning (``message``), e.g. a quarantined sink;
    * ``density`` -- the per-selector point summaries of one finished density
      (``series: {name: {density, mean, std, count, ...}}``), the checkpointing unit;
    * ``result`` -- the complete result dictionary.

    ``trial`` lines can be disabled (``trials=False``) to keep long-run files compact
    while retaining the per-density checkpoints.  The stream is exactly what
    :func:`repro.experiments.checkpoint.load_checkpoint` reads back to resume a killed
    sweep (see ``docs/events.md`` for the resumability contract).
    """

    def __init__(self, path: Union[str, Path], trials: bool = True) -> None:
        self.path = Path(path)
        self.trials = trials
        self._stream: Optional[TextIO] = None

    def ensure_writable(self) -> None:
        """Fail fast (before any sweep work) if the sink's path cannot be written.

        Probes by appending nothing, so an existing checkpoint stream at the same path --
        the ``--resume`` case -- is left intact; the real stream still truncates lazily on
        the first write.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8"):
            pass

    def _write(self, record: dict) -> None:
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open("w", encoding="utf-8")
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()

    def on_sweep_start(self, spec) -> None:
        self._write(
            {"event": "sweep_start", "experiment_id": spec.experiment_id, "spec": spec.to_dict()}
        )

    def on_trial(self, spec, density, run_index, payload, message) -> None:
        if self.trials:
            self._write(
                {
                    "event": "trial",
                    "experiment_id": spec.experiment_id,
                    "density": density,
                    "run": run_index,
                    "payload": payload,
                }
            )

    def on_trial_error(self, spec, density, run_index, failure) -> None:
        self._write(
            {
                "event": "trial_error",
                "experiment_id": spec.experiment_id,
                "density": density,
                "run": run_index,
                "error": failure.error,
                "error_type": failure.error_type,
                "attempts": failure.attempts,
            }
        )

    def on_warning(self, spec, message) -> None:
        self._write(
            {"event": "warning", "experiment_id": spec.experiment_id, "message": message}
        )

    def on_density(self, spec, density, points) -> None:
        self._write(
            {
                "event": "density",
                "experiment_id": spec.experiment_id,
                "density": density,
                "series": {name: point.to_dict() for name, point in points.items()},
            }
        )

    def on_result(self, result: ExperimentResult) -> None:
        self._write(
            {"event": "result", "experiment_id": result.experiment_id, "result": result.to_dict()}
        )

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


class MetricsCapture(ResultSink):
    """Collects every ``on_metrics`` snapshot in ``snapshots`` (tests, CLI summaries)."""

    def __init__(self) -> None:
        self.snapshots: List[dict] = []

    def on_metrics(self, spec, snapshot) -> None:
        self.snapshots.append(snapshot)

    @property
    def last(self) -> Optional[dict]:
        """The most recent snapshot (the run-total one after a finished sweep)."""
        return self.snapshots[-1] if self.snapshots else None


@SINKS.register(
    "metrics", description="one JSON line per on_metrics telemetry snapshot (--metrics)"
)
class MetricsJsonlSink(JsonlSink):
    """Streams telemetry snapshots as their own JSONL file, one line per ``on_metrics``.

    Each line carries ``event: "metrics"``, the ``experiment_id``, the snapshot's
    ``density`` (``null`` on the final run-total line) and the four registry sections.
    Kept separate from the main :class:`JsonlSink` stream so checkpoint files stay
    byte-identical with telemetry on; the checkpoint loader would tolerate interleaved
    ``metrics`` lines, but nothing needs to pay for them.  Deterministic sections of the
    lines are bit-identical serial vs ``REPRO_WORKERS=N``; ``spans`` are wall-clock.
    """

    def on_sweep_start(self, spec) -> None:
        pass

    def on_trial(self, spec, density, run_index, payload, message) -> None:
        pass

    def on_trial_error(self, spec, density, run_index, failure) -> None:
        pass

    def on_warning(self, spec, message) -> None:
        pass

    def on_density(self, spec, density, points) -> None:
        pass

    def on_result(self, result: ExperimentResult) -> None:
        pass

    def on_metrics(self, spec, snapshot) -> None:
        self._write({"event": "metrics", "experiment_id": spec.experiment_id, **snapshot})


def stderr_progress_sink() -> ProgressSink:
    """The CLI's default progress sink (one line per trial to stderr, with throughput)."""
    return ProgressSink(lambda message: print(message, file=sys.stderr), throughput=True)
