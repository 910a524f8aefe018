"""The QoS metric protocol.

The paper's algorithms are written twice -- once for *bandwidth* (a **concave** metric: the
value of a path is the minimum over its links, larger is better) and once for *delay* (an
**additive** metric: the value of a path is the sum over its links, smaller is better) -- and
the authors note that any other metric of either family (jitter, packet loss, residual
energy, ...) works identically.  This module captures that family structure once, so that a
single implementation of the path solver, of FNBP and of every baseline serves all metrics.

A :class:`Metric` answers four questions:

* how to **extend** a path value with one more link (:meth:`Metric.combine`);
* what the value of the **empty path** is (:attr:`Metric.identity`);
* what value means **unreachable** (:attr:`Metric.worst`);
* which of two values is **better** (:meth:`Metric.is_better`), with a tolerance-aware
  equality (:meth:`Metric.values_equal`) used when collecting *all* optimal first hops.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from enum import Enum
from typing import Iterable, Optional


class MetricKind(Enum):
    """The two metric families handled by the paper's algorithms."""

    ADDITIVE = "additive"
    """Path value is the sum of link values (delay, jitter, loss, hop count)."""

    CONCAVE = "concave"
    """Path value is the minimum of link values (bandwidth, residual buffers, energy)."""


class Metric(ABC):
    """A link-quality metric together with its path-composition rule and ordering.

    Concrete subclasses fix the four protocol pieces described in the module docstring.
    Instances are stateless and therefore safe to share between nodes and experiments.
    """

    #: Short machine-readable name, also used as the edge-attribute key on graphs.
    name: str = "metric"

    #: Whether path values are sums or minima of link values.
    kind: MetricKind = MetricKind.ADDITIVE

    #: Relative tolerance used by :meth:`values_equal` when deciding that two paths are
    #: "equally good".  The paper's topologies use small integer weights, so exact equality
    #: would suffice there, but experiments draw real-valued weights.
    rel_tol: float = 1e-9

    @property
    def prefix_optimal(self) -> bool:
        """Whether every prefix of an optimal path is itself optimal under this metric.

        The single-pass owner-rooted first-hop solver propagates first-hop sets
        across *tight* links rooted at the owner, which is only complete when a path can be
        optimal exclusively through optimal prefixes.  That holds for plain additive
        composition (adding a common suffix preserves every componentwise difference) but
        fails as soon as composition can erase differences -- ``min`` makes a bottleneck
        path optimal even when its prefix is not, which is also why concave metrics use the
        bottleneck-forest solver instead.  Conservative default: False; the stock
        additive family overrides it, and composites derive it from their components.
        Subclasses that override :meth:`combine` with non-additive semantics must leave it
        (or set it back to) False.
        """
        return False

    # ------------------------------------------------------------------ composition

    @property
    @abstractmethod
    def identity(self) -> float:
        """Value of the empty path (combining it with any link value yields that value)."""

    @property
    @abstractmethod
    def worst(self) -> float:
        """Value representing an unreachable destination (worse than any real path)."""

    @abstractmethod
    def combine(self, path_value: float, link_value: float) -> float:
        """Return the value of a path extended by one link of value ``link_value``."""

    def path_value(self, link_values: Iterable[float]) -> float:
        """Value of a whole path given the values of its links, in order.

        An empty iterable denotes the empty path and returns :attr:`identity`.
        """
        value = self.identity
        for link_value in link_values:
            value = self.combine(value, link_value)
        return value

    # ------------------------------------------------------------------ ordering

    @abstractmethod
    def is_better(self, a: float, b: float) -> bool:
        """Return True when value ``a`` is *strictly* better than value ``b``."""

    def values_equal(self, a: float, b: float) -> bool:
        """Tolerance-aware equality of two path/link values."""
        if a == b:
            return True
        if math.isinf(a) or math.isinf(b):
            return a == b
        return math.isclose(a, b, rel_tol=self.rel_tol, abs_tol=self.rel_tol)

    def is_better_or_equal(self, a: float, b: float) -> bool:
        """Return True when ``a`` is at least as good as ``b`` (up to tolerance)."""
        return self.is_better(a, b) or self.values_equal(a, b)

    def better_of(self, a: float, b: float) -> float:
        """Return the better of two values."""
        return a if self.is_better(a, b) else b

    def optimum(self, values: Iterable[float], default: Optional[float] = None) -> float:
        """Return the best value among ``values`` (``default`` / :attr:`worst` if empty)."""
        best: Optional[float] = None
        for value in values:
            if best is None or self.is_better(value, best):
                best = value
        if best is None:
            return self.worst if default is None else default
        return best

    def is_usable(self, value: float) -> bool:
        """Return True when ``value`` denotes a real (reachable) path."""
        return not self.values_equal(value, self.worst) and not self.is_better(self.worst, value)

    # ------------------------------------------------------------------ priority-queue support

    def sort_key(self, value: float) -> float:
        """Map ``value`` to a float such that *smaller keys are better*.

        This is what lets a single binary-heap Dijkstra serve both metric families: additive
        metrics already order that way, concave metrics are negated.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ edge-attribute access

    def cache_token(self) -> object:
        """Hashable token identifying this metric's link-value *extraction rule*.

        Per-view compact-graph caches key on this: two metrics with equal tokens must
        extract identical link values from any edge-attribute mapping.  The default --
        the concrete class plus the attribute name it reads -- is correct for every
        single-attribute metric; metrics whose extraction depends on more state (e.g.
        composites) must override it accordingly.
        """
        return (type(self), self.name)

    def link_value_from_attributes(self, attributes: dict) -> float:
        """Extract this metric's link value from an edge-attribute mapping.

        By default the value is stored under the metric's :attr:`name`.  Composite metrics
        override this to assemble their value from several attributes at once.
        """
        try:
            return attributes[self.name]
        except KeyError as exc:
            raise KeyError(
                f"edge has no {self.name!r} attribute; available: {sorted(attributes)}"
            ) from exc

    # ------------------------------------------------------------------ niceties

    def validate_link_value(self, value: float) -> float:
        """Check that ``value`` is a legal weight for a single link under this metric."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{self.name} link values must be numbers, got {type(value).__name__}")
        if not math.isfinite(value):
            raise ValueError(f"{self.name} link values must be finite, got {value!r}")
        return float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind.value})"


class AdditiveMetric(Metric):
    """Base class for additive metrics (path value = sum of link values, smaller is better)."""

    kind = MetricKind.ADDITIVE

    @property
    def prefix_optimal(self) -> bool:
        return True

    @property
    def identity(self) -> float:
        return 0.0

    @property
    def worst(self) -> float:
        return math.inf

    def combine(self, path_value: float, link_value: float) -> float:
        return path_value + link_value

    def is_better(self, a: float, b: float) -> bool:
        return a < b and not self.values_equal(a, b)

    def sort_key(self, value: float) -> float:
        return value

    def validate_link_value(self, value: float) -> float:
        value = super().validate_link_value(value)
        if value < 0:
            raise ValueError(f"{self.name} link values must be non-negative, got {value!r}")
        return value


class ConcaveMetric(Metric):
    """Base class for concave metrics (path value = min of link values, larger is better)."""

    kind = MetricKind.CONCAVE

    @property
    def identity(self) -> float:
        return math.inf

    @property
    def worst(self) -> float:
        return 0.0

    def combine(self, path_value: float, link_value: float) -> float:
        return min(path_value, link_value)

    def is_better(self, a: float, b: float) -> bool:
        return a > b and not self.values_equal(a, b)

    def sort_key(self, value: float) -> float:
        return -value

    def validate_link_value(self, value: float) -> float:
        value = super().validate_link_value(value)
        if value <= 0:
            raise ValueError(f"{self.name} link values must be strictly positive, got {value!r}")
        return value
