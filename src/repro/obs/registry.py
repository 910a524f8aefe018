"""The telemetry registry: counters, histograms and timing spans.

One :class:`MetricsRegistry` holds everything a run (or a single trial) records, split
into two hard groups with different guarantees:

* **Deterministic metrics** -- ``counters`` (integer event counts: cache hits, kernel
  dispatches, retries, protocol transmissions, ...) and ``histograms`` (value
  distributions folded as count/total/min/max, e.g. dirty-set sizes).  These are pure
  functions of the sweep's inputs: a parallel sweep merges each worker's per-trial
  registry back **in run order** (the same order a serial sweep folds them in), so the
  deterministic sections of every emitted snapshot are bit-identical serial vs
  ``REPRO_WORKERS=N``.  The serial-vs-parallel identity is pinned by
  ``tests/test_observability.py``.
* **Wall-clock measurements** -- ``spans`` (per-phase duration histograms recorded by the
  :meth:`MetricsRegistry.span` context manager).  Useful for profiling, meaningless to
  compare byte-for-byte; they are reported in snapshots but explicitly excluded from the
  determinism contract (see ``docs/observability.md``).

Registries are cheap plain-dict state -- a worker process snapshots its per-trial
registry to a JSON-able dict, ships it back with the trial payload, and the engine folds
it into the run registry with :meth:`MetricsRegistry.merge_snapshot`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


def _fold_stats(bucket: Dict[str, Dict[str, float]], name: str, value: float) -> None:
    """Fold one observation into a count/total/min/max stats dict (in place)."""
    stats = bucket.get(name)
    if stats is None:
        bucket[name] = {"count": 1, "total": value, "min": value, "max": value}
        return
    stats["count"] += 1
    stats["total"] += value
    if value < stats["min"]:
        stats["min"] = value
    if value > stats["max"]:
        stats["max"] = value


def _merge_stats(bucket: Dict[str, Dict[str, float]], name: str, other: Dict[str, float]) -> None:
    """Fold a whole count/total/min/max stats dict into ``bucket[name]`` (in place)."""
    stats = bucket.get(name)
    if stats is None:
        bucket[name] = dict(other)
        return
    stats["count"] += other["count"]
    stats["total"] += other["total"]
    if other["min"] < stats["min"]:
        stats["min"] = other["min"]
    if other["max"] > stats["max"]:
        stats["max"] = other["max"]


class _Span:
    """Context manager timing one phase; exception-safe (the duration is recorded and the
    nesting stack popped in ``finally``, so a raising trial cannot leak an open span)."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self._registry._active.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        registry = self._registry
        try:
            _fold_stats(registry.spans, self._name, elapsed)
        finally:
            registry._active.pop()


class MetricsRegistry:
    """Counters, histograms and spans of one run (or one trial).

    The deterministic sections (``counters``, ``histograms``) aggregate
    bit-identically serial vs parallel because merging is commutative-per-key and the
    engine merges trial snapshots in run order; ``spans`` are wall-clock and excluded
    from that contract.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}
        self.spans: Dict[str, Dict[str, float]] = {}
        self._active: List[str] = []

    # ------------------------------------------------------------- recording

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name`` (deterministic)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the histogram ``name`` (deterministic)."""
        _fold_stats(self.histograms, name, value)

    def span(self, name: str) -> _Span:
        """Time a phase: ``with registry.span("selection"): ...`` (wall-clock)."""
        return _Span(self, name)

    def active_spans(self) -> List[str]:
        """The currently open span names, outermost first (empty between phases)."""
        return list(self._active)

    # ------------------------------------------------------------- aggregation

    def snapshot(self) -> dict:
        """The registry as a JSON-able dict, deterministic sections key-sorted.

        ``counters``/``histograms`` are the deterministic sections;
        ``spans`` is wall-clock (every stats dict gains a derived ``mean``).
        """
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "histograms": {
                name: dict(self.histograms[name]) for name in sorted(self.histograms)
            },
            "spans": {
                name: {**stats, "mean": stats["total"] / stats["count"]}
                for name, stats in sorted(self.spans.items())
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. shipped back from a worker) into this registry.

        Counter/histogram merging is commutative per key.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, stats in snapshot.get("histograms", {}).items():
            _merge_stats(self.histograms, name, stats)
        for name, stats in snapshot.get("spans", {}).items():
            _merge_stats(self.spans, name, {key: stats[key] for key in ("count", "total", "min", "max")})


def deterministic_sections(snapshot: dict) -> dict:
    """The parts of a snapshot covered by the serial-vs-parallel identity contract."""
    return {
        "counters": snapshot.get("counters", {}),
        "histograms": snapshot.get("histograms", {}),
    }


class TrialTelemetry:
    """Envelope pairing one trial's payload with its registry snapshot.

    Workers return these (picklable: payload + plain dict) when telemetry is enabled;
    the engine unwraps the payload for the measures and merges the snapshot, in run
    order, into the run registry.
    """

    __slots__ = ("payload", "snapshot")

    def __init__(self, payload: object, snapshot: dict) -> None:
        self.payload = payload
        self.snapshot = snapshot

    def __reduce__(self):
        return (TrialTelemetry, (self.payload, self.snapshot))


def unwrap_payload(result: object) -> object:
    """The bare trial payload, whether or not it rides in a :class:`TrialTelemetry`."""
    return result.payload if isinstance(result, TrialTelemetry) else result


def merge_trial(registry: Optional[MetricsRegistry], result: object) -> object:
    """Merge a trial envelope's snapshot into ``registry`` and return the bare payload.

    The single place the engine folds worker telemetry from -- called exactly once per
    trial, in run order, which is what makes the merged counters deterministic.
    """
    if isinstance(result, TrialTelemetry):
        if registry is not None:
            registry.merge_snapshot(result.snapshot)
        return result.payload
    return result
