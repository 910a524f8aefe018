"""Reading :class:`~repro.experiments.sinks.JsonlSink` streams back into resumable state.

The ``jsonl`` sink flushes one self-describing line per engine event, so the stream of a
sweep that died -- a SIGKILL, a power cut, a crashed worker that exhausted its retries
under ``on_error="fail"`` -- still contains every *finished* density.  This module turns
such a stream into a :class:`Checkpoint` that
:func:`repro.experiments.engine.run_experiment` can resume from: finished densities are
skipped (their trial and density events are re-emitted from the checkpoint, so downstream
sinks observe the exact stream an uninterrupted run would have produced) and only the
remaining densities are computed.  ``repro-sweep --resume out.jsonl`` is the CLI wiring.

Resumability contract (also documented in ``docs/events.md``): a resumable stream must
contain the ``sweep_start`` event (the spec makes the file self-contained -- it is also
what the spec-hash guard compares) and zero or more complete ``density`` events; ``trial``
/ ``trial_error`` lines between density events are replayed with their densities, trailing
lines of an unfinished density are discarded (that density re-runs from scratch), and a
final line truncated by the kill mid-write is tolerated.  Because trials are pure
functions of ``(spec, metric, density, run_index)``, the re-run densities reproduce the
exact payloads the dead run would have produced, which is what makes *resumed output
byte-identical to an uninterrupted run* (locked by ``tests/test_fault_tolerance.py``).

``minimum``/``maximum`` of a point's :class:`~repro.experiments.stats.Summary` are not
part of any serialized output and therefore not recoverable from a stream; resumed points
carry ``nan`` there.  Every rendered artifact (text table, JSON, JSONL) only consumes
``mean``/``std``/``count``/``extra``, all of which round-trip exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.experiments.results import SeriesPoint
from repro.experiments.runner import TrialFailure
from repro.experiments.spec import ExperimentSpec
from repro.experiments.stats import Summary


class CheckpointError(ValueError):
    """A JSONL stream that cannot be resumed from (with a message saying why)."""


def spec_hash(spec: ExperimentSpec) -> str:
    """Content hash of a spec (sha256 over its canonical JSON form).

    Two specs hash equal iff they describe the same sweep; the resume guard compares the
    checkpoint's recorded spec against the spec about to run and refuses a mismatch, so a
    stream can never silently continue under different parameters.
    """
    canonical = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def point_from_dict(payload: dict) -> SeriesPoint:
    """Rebuild a :class:`SeriesPoint` from its ``to_dict`` form (extras preserved)."""
    extra = {
        key: value
        for key, value in payload.items()
        if key not in ("density", "mean", "std", "count")
    }
    summary = Summary(
        count=payload["count"],
        mean=payload["mean"],
        std=payload["std"],
        minimum=math.nan,
        maximum=math.nan,
    )
    return SeriesPoint(density=payload["density"], summary=summary, extra=extra)


@dataclass(frozen=True)
class DensityCheckpoint:
    """One fully aggregated density read back from a stream."""

    density: float
    #: ``(run_index, payload-dict | TrialFailure)`` in emission (= run) order.
    trials: Tuple[Tuple[int, object], ...]
    #: ``{selector_name: SeriesPoint}`` exactly as ``on_density`` delivered it.
    points: Dict[str, SeriesPoint]


@dataclass(frozen=True)
class Checkpoint:
    """Everything a killed sweep left behind that a resumed run can reuse."""

    spec: ExperimentSpec
    #: Finished densities in stream order (dict preserves insertion order).
    densities: Dict[float, DensityCheckpoint]
    #: Whether the stream already contains the final ``result`` event.
    complete: bool

    @property
    def spec_hash(self) -> str:
        return spec_hash(self.spec)


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Parse a :class:`JsonlSink` stream into a :class:`Checkpoint`.

    Tolerates exactly the damage a kill can cause -- a truncated final line, and trailing
    ``trial`` events of a density that never finished (both are discarded; the density
    re-runs).  Anything else malformed raises :class:`CheckpointError` naming the line: a
    line that is not UTF-8, JSON or an object, an event missing a field the resume reads,
    a ``series`` or point that is not an object, or a non-numeric ``density``.
    """
    path = Path(path)
    lines = path.read_bytes().splitlines()
    spec = None
    densities: Dict[float, DensityCheckpoint] = {}
    pending: list = []
    complete = False
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # a bad byte or bad JSON
            if number == len(lines):
                break  # final line truncated by the kill mid-write; the data before it stands
            raise CheckpointError(f"{path}:{number}: unparseable JSONL line ({exc})") from exc
        if not isinstance(record, dict):
            raise CheckpointError(f"{path}:{number}: not a JSON object")
        event = record.get("event")
        try:
            if event == "sweep_start":
                spec = ExperimentSpec.from_dict(record["spec"])
            elif event == "trial":
                pending.append((record["run"], record["payload"]))
            elif event == "trial_error":
                pending.append(
                    (
                        record["run"],
                        TrialFailure(
                            density=record["density"],
                            run_index=record["run"],
                            error=record["error"],
                            error_type=record["error_type"],
                            attempts=record["attempts"],
                        ),
                    )
                )
            elif event == "density":
                density = float(record["density"])
                points = {
                    name: point_from_dict(point) for name, point in record["series"].items()
                }
                densities[density] = DensityCheckpoint(
                    density=density, trials=tuple(pending), points=points
                )
                pending = []
            elif event == "result":
                complete = True
            # "warning" lines (and unknown future events) carry no resumable state.
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            # AttributeError: a series or point that is not an object has no ``items``;
            # OverflowError: an integer density too large for a float.
            raise CheckpointError(f"{path}:{number}: malformed {event} event ({exc!r})") from exc
    if spec is None:
        raise CheckpointError(
            f"{path} contains no sweep_start event -- not a resumable JSONL stream "
            f"(was it written by the jsonl sink?)"
        )
    return Checkpoint(spec=spec, densities=densities, complete=complete)
