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

Both phases run on the view's coverage record (``view.coverage()``), built once per view
and shared with :func:`repro.olsr.mpr.rfc3626_mpr` and FNBP's loop guard: phase 1 is
:mod:`repro.olsr.mpr`'s sole-provider helper, and phase 2 keeps the MPR set as a mask over
the sorted one-hop neighbours and the uncovered two-hop neighbours as a mask over the
sorted two-hop neighbours, a candidate's coverage being the popcount of its cover mask and
the uncovered mask.  Candidates are scanned in ``view.one_hop`` order: with a NaN direct
link the phase-two keys are not totally ordered, and the scan order picks the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.core.selection import SelectionDecision, _TracedSelector
from repro.localview.view import LocalView, mask_members
from repro.metrics.base import Metric
from repro.olsr.mpr import _popcount, _scan_order, _sole_providers
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
        coverage = view.coverage()
        hops, two_hops, covers = coverage.hops, coverage.two_hops, coverage.covers

        # Phase 1 (identical to RFC 3626): sole providers of some two-hop neighbor.
        picks: Optional[List[int]] = [] if trace is not None else None
        mpr, uncovered = _sole_providers(coverage, picks)
        if trace is not None:
            relays = coverage.relays
            for j in picks:
                provider = hops[relays[j].bit_length() - 1]
                trace.append(SelectionDecision(two_hops[j], provider, "sole-cover", ()))

        # Phase 2: QoS-aware greedy, variant-specific ranking.
        if uncovered:
            direct = view.direct_link_values(metric)
            scan = _scan_order(view, coverage)
        while uncovered:
            candidates = [
                (neighbor, i) for neighbor, i in scan if not mpr >> i & 1 and covers[i] & uncovered
            ]
            if not candidates:
                break
            _, best = min(
                candidates,
                key=lambda candidate: self._phase_two_key(
                    metric.sort_key(direct[candidate[0]]),
                    _popcount(covers[candidate[1]] & uncovered),
                    candidate[0],
                ),
            )
            mpr |= 1 << best
            covered_now = covers[best] & uncovered
            uncovered ^= covered_now
            if trace is not None:
                trace.append(
                    SelectionDecision(
                        None,
                        hops[best],
                        self._phase_two_reason(),
                        (("newly_covered", mask_members(two_hops, covered_now)),),
                    )
                )

        return frozenset(mask_members(hops, mpr))

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
