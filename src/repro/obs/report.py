"""Human-readable and machine-diffable renderings of telemetry snapshots.

:func:`render_metrics_summary` is the end-of-run table the text sink (and ``repro-sweep``
with ``--metrics``) appends below the result report; :func:`build_profile` shapes a
snapshot's span histograms into the JSON document ``--profile-trials`` writes, in
seconds per phase, the unit of the per-layer times ``perfbench/run.py --trace 1``
reports.
"""

from __future__ import annotations

from typing import List


def _format_value(value: float) -> str:
    """Counters print as integers, everything else as short floats."""
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def render_metrics_summary(snapshot: dict) -> str:
    """The end-of-run telemetry summary as a fixed-width text table."""
    lines: List[str] = ["telemetry summary", "-----------------"]
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    spans = snapshot.get("spans", {})
    if counters:
        width = max(len(name) for name in counters)
        lines.append("counters (deterministic):")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name.ljust(width)}  {_format_value(value)}")
    if histograms:
        width = max(len(name) for name in histograms)
        lines.append("histograms (deterministic; count/mean/min/max):")
        for name, stats in sorted(histograms.items()):
            mean = stats["total"] / stats["count"] if stats["count"] else 0.0
            lines.append(
                f"  {name.ljust(width)}  n={int(stats['count'])} mean={mean:.6g} "
                f"min={_format_value(stats['min'])} max={_format_value(stats['max'])}"
            )
    if spans:
        width = max(len(name) for name in spans)
        lines.append("spans (wall-clock seconds; count/total/mean/max):")
        for name, stats in sorted(spans.items()):
            mean = stats.get("mean", stats["total"] / stats["count"] if stats["count"] else 0.0)
            lines.append(
                f"  {name.ljust(width)}  n={int(stats['count'])} total={stats['total']:.4f} "
                f"mean={mean:.6f} max={stats['max']:.6f}"
            )
    if len(lines) == 2:
        lines.append("(no telemetry recorded)")
    return "\n".join(lines)


def build_profile(spec, snapshot: dict) -> dict:
    """The ``--profile-trials`` report: per-phase span histograms.

    Span entries give ``count`` and, in seconds, ``total``, ``mean``, ``min`` and
    ``max``; the deterministic counters ride along for context.
    """
    spans = {}
    for name, stats in sorted(snapshot.get("spans", {}).items()):
        count = int(stats["count"])
        spans[name] = {
            "count": count,
            "total": stats["total"],
            "mean": stats["total"] / count if count else 0.0,
            "min": stats["min"],
            "max": stats["max"],
        }
    return {
        "experiment_id": spec.experiment_id,
        "spans": spans,
        "counters": dict(snapshot.get("counters", {})),
        "histograms": dict(snapshot.get("histograms", {})),
    }
