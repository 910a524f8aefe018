"""Input-validation helpers shared across the library.

These raise :class:`ValueError` with consistent, descriptive messages so that configuration
mistakes (a negative radius, a zero density, a malformed probability) fail loudly at the
boundary instead of corrupting an experiment half-way through.
"""

from __future__ import annotations

import math
from typing import Union

Number = Union[int, float]


def require_positive(value: Number, name: str) -> Number:
    """Return ``value`` if it is a finite number strictly greater than zero."""
    _require_finite(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be strictly positive, got {value!r}")
    return value


def require_non_negative(value: Number, name: str) -> Number:
    """Return ``value`` if it is a finite number greater than or equal to zero."""
    _require_finite(value, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def _require_finite(value: Number, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
