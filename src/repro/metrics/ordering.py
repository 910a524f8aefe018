"""The paper's neighbor-preference operators ``≺_BW`` and ``≺_D``.

Section III.A defines, for a node ``u``, a total order over its neighbors: ``w ≺ v`` when the
direct link ``(u, w)`` has the better metric value, with ties broken by the *smaller node
identifier* winning.  FNBP uses the associated max/min to pick which first-hop candidate to
add to the ANS; the QOLSR MPR-2 baseline uses the same order in its greedy phase.

``preferred_neighbor`` implements the selection directly: among a candidate set, return the
node whose direct link from ``u`` is best, breaking ties by smallest identifier.  This is the
single place where that tie-break lives.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.metrics.base import Metric
from repro.utils.ids import NodeId


def preference_key(
    metric: Metric,
    link_value: float,
    node_id: NodeId,
) -> tuple:
    """Sort key implementing the paper's ``≺`` order (smaller key = preferred)."""
    return (metric.sort_key(link_value), node_id)


def preferred_neighbor(
    candidates: Iterable[NodeId],
    metric: Metric,
    direct_link_value: Callable[[NodeId], float],
) -> Optional[NodeId]:
    """Return the candidate with the best direct-link value, ties broken by smallest id.

    Parameters
    ----------
    candidates:
        Neighbor identifiers to choose among.  Returns ``None`` when empty.
    metric:
        The QoS metric defining "best".
    direct_link_value:
        Callable mapping a candidate ``w`` to the value of the direct link ``(u, w)``.
    """
    best: Optional[NodeId] = None
    best_key: Optional[tuple] = None
    for candidate in candidates:
        key = preference_key(metric, direct_link_value(candidate), candidate)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best
