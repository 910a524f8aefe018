"""Telemetry subsystem: deterministic counters, timing spans, run introspection.

Two layers:

* :mod:`repro.obs.registry` -- :class:`MetricsRegistry` (counters, histograms, spans)
  with the hard deterministic-vs-wall-clock split, plus the :class:`TrialTelemetry`
  envelope workers ship their snapshots back in.
* :mod:`repro.obs.runtime` -- the ambient per-process current registry the
  instrumentation sites record through; every helper is a near-free no-op while
  telemetry is off (the default).

Enable per sweep with ``run_experiment(..., metrics=True)``, ``repro-sweep --metrics``
or ``REPRO_METRICS=1``; snapshots stream to sinks as ``on_metrics`` events.  Contracts
in ``docs/observability.md``.
"""

from repro.obs.registry import (
    MetricsRegistry,
    TrialTelemetry,
    deterministic_sections,
    merge_trial,
    unwrap_payload,
)
from repro.obs.runtime import add, enabled, install, observe, resolve_metrics, span

__all__ = [
    "MetricsRegistry",
    "TrialTelemetry",
    "deterministic_sections",
    "merge_trial",
    "unwrap_payload",
    "add",
    "enabled",
    "install",
    "observe",
    "resolve_metrics",
    "span",
]
