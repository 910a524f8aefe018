"""Result containers for the evaluation harness.

Every experiment produces an :class:`ExperimentResult`: one series per protocol, one point
per density, each point carrying the summary statistics of its sample.  The containers know
how to render themselves as the text tables the CLI prints (and writes with ``--output``),
and how to serialize to plain dictionaries for further processing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.stats import Summary


@dataclass(frozen=True)
class SeriesPoint:
    """One (density, statistic) point of one protocol's curve."""

    density: float
    summary: Summary
    extra: Mapping[str, float] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.summary.mean

    def to_dict(self) -> dict:
        """Plain-dictionary form (the per-point schema of every JSON/JSONL output)."""
        return {
            "density": self.density,
            "mean": self.summary.mean,
            "std": self.summary.std,
            "count": self.summary.count,
            **dict(self.extra),
        }


@dataclass
class Series:
    """One protocol's curve across the density sweep."""

    name: str
    points: List[SeriesPoint] = field(default_factory=list)

    def add(self, point: SeriesPoint) -> None:
        self.points.append(point)

    def mean_at(self, density: float) -> float:
        """The series' mean value at ``density`` (nan when that density was not swept)."""
        for point in self.points:
            if point.density == density:
                return point.mean
        return math.nan

    def means(self) -> List[float]:
        return [point.mean for point in self.points]

    def densities(self) -> List[float]:
        return [point.density for point in self.points]


@dataclass
class ExperimentResult:
    """The complete outcome of one figure-style experiment."""

    experiment_id: str
    title: str
    metric_name: str
    x_label: str
    y_label: str
    series: Dict[str, Series] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ building

    def series_for(self, name: str) -> Series:
        """Return (creating on first use) the series for protocol ``name``."""
        if name not in self.series:
            self.series[name] = Series(name=name)
        return self.series[name]

    def add_point(self, series_name: str, point: SeriesPoint) -> None:
        self.series_for(series_name).add(point)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    # ------------------------------------------------------------------ reading

    def densities(self) -> List[float]:
        """The union of densities covered by any series, sorted."""
        values = sorted({point.density for series in self.series.values() for point in series.points})
        return values

    def to_dict(self) -> dict:
        """Plain-dictionary form (JSON-serializable) for storage or plotting."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "metric": self.metric_name,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "notes": list(self.notes),
            "series": {
                name: [point.to_dict() for point in series.points]
                for name, series in self.series.items()
            },
        }

    # ------------------------------------------------------------------ rendering

    def to_table(self, precision: int = 3) -> str:
        """Render the result as a fixed-width text table (densities as rows)."""
        names = sorted(self.series)
        header_cells = [self.x_label] + names
        rows: List[List[str]] = []
        for density in self.densities():
            row = [f"{density:g}"]
            for name in names:
                value = self.series[name].mean_at(density)
                row.append("-" if math.isnan(value) else f"{value:.{precision}f}")
            rows.append(row)

        widths = [
            max(len(header_cells[column]), *(len(row[column]) for row in rows)) if rows else len(header_cells[column])
            for column in range(len(header_cells))
        ]
        lines = [
            f"{self.experiment_id}: {self.title} ({self.y_label} vs {self.x_label}, metric={self.metric_name})",
            "  " + " | ".join(cell.ljust(width) for cell, width in zip(header_cells, widths)),
            "  " + "-+-".join("-" * width for width in widths),
        ]
        for row in rows:
            lines.append("  " + " | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_table()
