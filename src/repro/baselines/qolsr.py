"""QOLSR MPR selection heuristics (Badis & Agha), the paper's primary baseline.

QOLSR keeps OLSR's structure -- a single MPR set used both for flooding and for routing --
but makes the second phase of the selection QoS-aware.  The paper describes the two variants
it compares against:

* **MPR-1**: phase 2 still picks by coverage of the remaining two-hop neighbors, but ties are
  broken by the QoS of the direct link (highest bandwidth / smallest delay) instead of by
  degree.
* **MPR-2** (the variant used in the paper's evaluation): phase 2 ignores coverage counts
  entirely and repeatedly adds the not-yet-selected neighbor whose direct link offers the
  best QoS among those that still cover at least one uncovered two-hop neighbor.

Both share phase 1 with RFC 3626: neighbors that are the sole cover of some two-hop neighbor
are always selected.  As the paper notes (citing [3]), this first phase already accounts for
about 75 % of the set, which is why the QOLSR sets end up close to the original OLSR sets in
size and why restricting paths to at most two hops leaves QoS gains on the table (the
Figure 1 example, reproduced in :mod:`repro.papergraphs.figure1`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.core.selection import SelectionDecision, _TracedSelector
from repro.localview.view import LocalView
from repro.metrics.base import Metric
from repro.olsr.mpr import coverage_map
from repro.registry import SELECTORS
from repro.utils.ids import NodeId


@dataclass
class _QolsrBase(_TracedSelector):
    """Shared two-phase skeleton of the QOLSR heuristics.

    :meth:`select` returns the MPR set alone; :meth:`explain` adds a ``sole-cover``
    decision per phase-1 pick and one decision per phase-2 round.
    """

    name = "qolsr-base"

    def _select(
        self, view: LocalView, metric: Metric, trace: Optional[List[SelectionDecision]]
    ) -> FrozenSet[NodeId]:
        cover = coverage_map(view)
        uncovered: Set[NodeId] = set().union(*cover.values()) if cover else set()
        mpr: Set[NodeId] = set()

        # Phase 1 (identical to RFC 3626): sole providers of some two-hop neighbor.
        for two_hop in sorted(uncovered):
            providers = [neighbor for neighbor, covered in cover.items() if two_hop in covered]
            if len(providers) == 1 and providers[0] not in mpr:
                mpr.add(providers[0])
                if trace is not None:
                    trace.append(SelectionDecision(two_hop, providers[0], "sole-cover", ()))
        for neighbor in mpr:
            uncovered -= cover[neighbor]

        # Phase 2: QoS-aware greedy, variant-specific ranking.
        direct = view.direct_link_values(metric) if uncovered else None
        while uncovered:
            candidates = [
                neighbor
                for neighbor in view.one_hop
                if neighbor not in mpr and cover[neighbor] & uncovered
            ]
            if not candidates:
                break
            best = min(
                candidates,
                key=lambda neighbor: self._phase_two_key(
                    metric.sort_key(direct[neighbor]), len(cover[neighbor] & uncovered), neighbor
                ),
            )
            mpr.add(best)
            covered_now = cover[best] & uncovered
            uncovered -= covered_now
            if trace is not None:
                trace.append(
                    SelectionDecision(
                        None,
                        best,
                        self._phase_two_reason(),
                        (("newly_covered", tuple(sorted(covered_now))),),
                    )
                )

        return frozenset(mpr)

    # ------------------------------------------------------------------ variant hooks

    def _phase_two_key(self, link_quality, coverage: int, neighbor: NodeId) -> Tuple:
        """Rank of a candidate (smaller is better) from its direct link's sort key and
        how many still-uncovered two-hop neighbors it covers."""
        raise NotImplementedError

    def _phase_two_reason(self) -> str:
        raise NotImplementedError


@SELECTORS.register("qolsr-mpr1", description="QOLSR MPR-1: coverage first, direct-link QoS tie-break")
@dataclass
class QolsrMpr1Selector(_QolsrBase):
    """QOLSR MPR-1: coverage first, direct-link QoS as the tie-breaker."""

    name = "qolsr-mpr1"

    def _phase_two_key(self, link_quality, coverage, neighbor):
        return (-coverage, link_quality, neighbor)

    def _phase_two_reason(self) -> str:
        return "greedy-coverage-qos-tiebreak"


@SELECTORS.register("qolsr-mpr2", description="QOLSR MPR-2 (the evaluation's baseline): QoS first, coverage tie-break")
@dataclass
class QolsrMpr2Selector(_QolsrBase):
    """QOLSR MPR-2 (the evaluation's baseline): direct-link QoS first, coverage as tie-breaker."""

    name = "qolsr-mpr2"

    def _phase_two_key(self, link_quality, coverage, neighbor):
        return (link_quality, -coverage, neighbor)

    def _phase_two_reason(self) -> str:
        return "greedy-qos"
