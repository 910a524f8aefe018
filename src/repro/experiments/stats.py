"""Summary statistics used by the evaluation harness.

Kept dependency-light (no numpy required at call sites) and explicit about edge cases: the
overhead experiments can produce empty samples (e.g. every routing attempt at a density
failed), and those must surface as ``nan`` rather than crash or silently become zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Summary:
    """Mean / spread summary of one sample: exactly what a point serializes."""

    count: int
    mean: float
    std: float


def summarize(values: Iterable[float]) -> Summary:
    """Summarize a sample of real values (``nan``-free input expected)."""
    data: Sequence[float] = [float(value) for value in values]
    if not data:
        return Summary(count=0, mean=math.nan, std=math.nan)
    mean = sum(data) / len(data)
    if len(data) == 1:
        std = 0.0
    else:
        variance = sum((value - mean) ** 2 for value in data) / (len(data) - 1)
        std = math.sqrt(variance)
    return Summary(count=len(data), mean=mean, std=std)
