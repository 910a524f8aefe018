"""Rendering and persisting experiment results.

The harness reports results as fixed-width text tables (the repository has no plotting
dependency); :func:`render_report` stitches several figures' tables into one document and
:func:`write_report` saves it, as the text sink behind ``repro-sweep --output`` does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Mapping, Union

from repro.experiments.results import ExperimentResult


def render_report(results: Mapping[int, ExperimentResult] | Iterable[ExperimentResult], header: str = "") -> str:
    """Render one or more experiment results as a single text report."""
    if isinstance(results, Mapping):
        ordered = [results[key] for key in sorted(results)]
    else:
        ordered = list(results)
    sections = [header] if header else []
    for result in ordered:
        sections.append(result.to_table())
    return "\n\n".join(sections) + "\n"


def write_report(
    results: Mapping[int, ExperimentResult] | Iterable[ExperimentResult],
    path: Union[str, Path],
    header: str = "",
) -> Path:
    """Write the text report to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(results, header=header), encoding="utf-8")
    return path


def write_json(
    results: Mapping[int, ExperimentResult] | Iterable[ExperimentResult],
    path: Union[str, Path],
) -> Path:
    """Write the results as JSON (one entry per experiment id) and return the path."""
    if isinstance(results, Mapping):
        ordered = [results[key] for key in sorted(results)]
    else:
        ordered = list(results)
    payload = {result.experiment_id: result.to_dict() for result in ordered}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path
