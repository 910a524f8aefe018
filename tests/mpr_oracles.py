"""The set-based MPR routines the coverage-mask selections are cross-validated against.

These are the library's original implementations of RFC 3626 MPR selection
(:func:`repro.olsr.mpr.rfc3626_mpr`) and of the QOLSR two-phase heuristics
(:mod:`repro.baselines.qolsr`): per-neighbour cover sets from ``view.neighbors_of``, and a
phase 1 that scans every one-hop neighbour's cover set once per two-hop neighbour.  They
share no code with the mask routines, which read ``view.coverage()``, so agreement
between the two is evidence for both; ``tests/test_coverage_masks.py`` and
``benchmarks/test_bench_csr_kernels.py`` use them as oracles.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.selection import SelectionDecision
from repro.localview import LocalView
from repro.metrics.base import Metric
from repro.utils.ids import NodeId


def coverage_map_sets(view: LocalView) -> Dict[NodeId, Set[NodeId]]:
    """For each one-hop neighbor, the set of strict two-hop neighbors it covers."""
    return {
        neighbor: view.neighbors_of(neighbor) & view.two_hop
        for neighbor in view.one_hop
    }


def rfc3626_mpr_sets(view: LocalView) -> FrozenSet[NodeId]:
    """The RFC 3626 greedy MPR set for the owner of ``view``."""
    cover = coverage_map_sets(view)
    uncovered: Set[NodeId] = set().union(*cover.values()) if cover else set()
    mpr: Set[NodeId] = set()

    # Phase 1: neighbors that are the sole cover of some two-hop neighbor.
    for two_hop in sorted(uncovered):
        providers = [neighbor for neighbor, covered in cover.items() if two_hop in covered]
        if len(providers) == 1:
            mpr.add(providers[0])
    for neighbor in mpr:
        uncovered -= cover[neighbor]

    # Phase 2: greedy coverage of the remainder.
    while uncovered:
        best = max(
            (neighbor for neighbor in view.one_hop if neighbor not in mpr),
            key=lambda neighbor: (
                len(cover[neighbor] & uncovered),
                len(view.neighbors_of(neighbor)),
                -neighbor,
            ),
        )
        gained = cover[best] & uncovered
        if not gained:
            break
        mpr.add(best)
        uncovered -= gained

    return frozenset(mpr)


def qolsr_mpr1_key(link_quality, coverage: int, neighbor: NodeId) -> Tuple:
    """QOLSR MPR-1's phase-two rank: coverage first, direct-link QoS as the tie-breaker."""
    return (-coverage, link_quality, neighbor)


def qolsr_mpr2_key(link_quality, coverage: int, neighbor: NodeId) -> Tuple:
    """QOLSR MPR-2's phase-two rank: direct-link QoS first, coverage as the tie-breaker."""
    return (link_quality, -coverage, neighbor)


#: Registry name -> (phase-two rank, phase-two decision reason).
QOLSR_VARIANTS = {
    "qolsr-mpr1": (qolsr_mpr1_key, "greedy-coverage-qos-tiebreak"),
    "qolsr-mpr2": (qolsr_mpr2_key, "greedy-qos"),
}


def qolsr_sets(
    view: LocalView, metric: Metric, variant: str, trace: Optional[List[SelectionDecision]] = None
) -> FrozenSet[NodeId]:
    """The QOLSR MPR set of ``variant`` (``"qolsr-mpr1"`` or ``"qolsr-mpr2"``), appending
    the decisions ``explain`` records to ``trace`` when it is given."""
    phase_two_key, reason = QOLSR_VARIANTS[variant]
    cover = coverage_map_sets(view)
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
            key=lambda neighbor: phase_two_key(
                metric.sort_key(direct[neighbor]), len(cover[neighbor] & uncovered), neighbor
            ),
        )
        mpr.add(best)
        covered_now = cover[best] & uncovered
        uncovered -= covered_now
        if trace is not None:
            trace.append(
                SelectionDecision(None, best, reason, (("newly_covered", tuple(sorted(covered_now))),))
            )

    return frozenset(mpr)
