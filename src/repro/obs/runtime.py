"""Ambient telemetry plumbing: a process-wide current registry, off by default.

Instrumentation sites throughout the harness (selection cache, batched kernels, mobility
driver, protocol simulator, runner supervisor) record through the module-level helpers
here -- :func:`add`, :func:`observe`, :func:`span` -- instead of threading
a registry object through every call signature.  When no registry is installed (the
default) every helper is a near-free no-op: one module-global load and an ``is None``
test, which is what keeps the telemetry-off engine path within its <=2% overhead budget
(floor-guarded by ``benchmarks/test_bench_metrics_overhead.py``).

The installed registry is per-process state, which matches the harness's cache
architecture (caches are per-worker by construction): the engine installs the *run*
registry in the parent process for the duration of a sweep, and
:func:`repro.experiments.runner._execute_trial` installs a fresh *trial* registry around
each trial's execution -- in whichever process the trial runs -- then ships its snapshot
back with the result.  ``install`` returns the previously installed registry so nesting
restores cleanly (serial sweeps nest the trial registry inside the run registry).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs.registry import MetricsRegistry

_REGISTRY: Optional[MetricsRegistry] = None

_ENV_TRUE = frozenset(("1", "true", "yes", "on"))
_ENV_FALSE = frozenset(("", "0", "false", "no", "off"))


class _NullSpan:
    """The shared do-nothing context manager handed out while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


def enabled() -> bool:
    """Whether a registry is installed in this process."""
    return _REGISTRY is not None


def install(registry: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install ``registry`` as this process's current one; returns the previous.

    Callers restore the previous registry in a ``finally`` (see ``_execute_trial``), so
    a raising trial cannot leave its private registry installed.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def add(name: str, value: int = 1) -> None:
    """Increment a counter on the current registry (no-op while telemetry is off)."""
    registry = _REGISTRY
    if registry is not None:
        registry.count(name, value)


def observe(name: str, value: float) -> None:
    """Fold a histogram observation on the current registry (no-op while off)."""
    registry = _REGISTRY
    if registry is not None:
        registry.observe(name, value)


def span(name: str):
    """A timing span on the current registry (a shared null context while off)."""
    registry = _REGISTRY
    if registry is None:
        return _NULL_SPAN
    return registry.span(name)


def resolve_metrics(metrics: Optional[bool] = None) -> bool:
    """Whether telemetry is enabled for a sweep.

    ``metrics=None`` (the engine default) falls back to the ``REPRO_METRICS``
    environment variable: unset/empty/``0``/``false``/``no``/``off`` means off,
    ``1``/``true``/``yes``/``on`` means on, anything else is a configuration mistake
    rejected with an error naming the variable.
    """
    if metrics is not None:
        return bool(metrics)
    raw = os.environ.get("REPRO_METRICS", "").strip().lower()
    if raw in _ENV_FALSE:
        return False
    if raw in _ENV_TRUE:
        return True
    raise ValueError(
        f"REPRO_METRICS must be a boolean flag (1/true/yes/on or 0/false/no/off), got {raw!r}"
    )
