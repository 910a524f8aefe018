"""RFC 3626 multipoint-relay (MPR) selection.

The classical OLSR heuristic, metric-blind by design: it only cares about covering the whole
two-hop neighborhood with as few one-hop neighbors as possible.

1. Start with an empty MPR set; only strict two-hop neighbors reachable through a one-hop
   neighbor need covering.
2. Add every one-hop neighbor that is the *only* one covering some two-hop neighbor (the
   paper's related-work section cites [3]: roughly 75 % of MPRs are selected here).
3. While some two-hop neighbor is uncovered, greedily add the one-hop neighbor covering the
   most still-uncovered two-hop neighbors, breaking ties by higher degree then by smaller
   identifier.

Both FNBP and the topology-filtering baseline keep this set for TC flooding and add their
QoS-aware ANS on top of it, following Moraru & Simplot-Ryl's split between flooding and
routing sets.

Selection runs on the view's :class:`~repro.localview.view.Coverage` record
(``view.coverage()``, built once per view from its link map): the MPR set is a mask over the
sorted one-hop neighbours and the uncovered set a mask over the sorted two-hop neighbours.
Step 2 is :func:`_sole_providers`, which the QOLSR heuristics (:mod:`repro.baselines.qolsr`)
share: a two-hop neighbor has a sole provider when its relay mask has exactly one bit.
:func:`coverage_map` decodes the record's cover masks into sets.

The degree tie-break of step 3 counts ``len(view.neighbors_of(n))``, every neighbour of
``n`` including the owner and the owner's one-hop neighbours.  RFC 3626 section 8.3.1
defines the degree D(y) without those (y's neighbours outside N(x) and x), so this set can
differ from the RFC's on ties; changing it moves the protocol golden, the ``olsr-mpr``
decision traces and the ``protocol-convergence`` benchmark digests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.localview.view import Coverage, LocalView, mask_members
from repro.utils.ids import NodeId


def coverage_map(view: LocalView) -> Dict[NodeId, Set[NodeId]]:
    """For each one-hop neighbor, the set of strict two-hop neighbors it covers."""
    coverage = view.coverage()
    covers, two_hops = coverage.covers, coverage.two_hops
    return {
        neighbor: set(mask_members(two_hops, covers[i]))
        for neighbor, i in _scan_order(view, coverage)
    }


def _sole_providers(coverage: Coverage, picks: Optional[List[int]] = None) -> Tuple[int, int]:
    """Phase 1: every one-hop neighbor that is the sole provider of some two-hop neighbor.

    Returns ``(mpr, uncovered)``: the one-hop mask of the sole providers and the two-hop
    mask of the neighbours that have a provider but none in ``mpr``.  The rows are walked
    in sorted two-hop order; ``picks``, if given, receives the two-hop index of each row
    that added a provider not yet selected.
    """
    mpr = 0
    for j, providers in enumerate(coverage.relays):
        if providers and not providers & (providers - 1) and not providers & mpr:
            mpr |= providers
            if picks is not None:
                picks.append(j)
    covers = coverage.covers
    reachable = covered = 0
    for i, cover in enumerate(covers):
        reachable |= cover
        if mpr >> i & 1:
            covered |= cover
    return mpr, reachable & ~covered


def _scan_order(view: LocalView, coverage: Coverage) -> List[Tuple[NodeId, int]]:
    """``(neighbor, bit)`` for every one-hop neighbor, in ``view.one_hop`` order: the order
    the greedy phases scan candidates in, which decides between incomparable keys."""
    hops = coverage.hops
    bit_of = dict(zip(hops, range(len(hops))))
    return [(neighbor, bit_of[neighbor]) for neighbor in view.one_hop]


def _popcount(mask: int) -> int:
    """The number of set bits of ``mask`` (``int.bit_count`` needs Python 3.10)."""
    return bin(mask).count("1")


def rfc3626_mpr(view: LocalView) -> FrozenSet[NodeId]:
    """Compute the RFC 3626 greedy MPR set for the owner of ``view``."""
    coverage = view.coverage()
    mpr, uncovered = _sole_providers(coverage)

    # Phase 2: greedy coverage of the remainder.
    if uncovered:
        covers = coverage.covers
        scan = _scan_order(view, coverage)
        while uncovered:
            _, best = max(
                ((neighbor, i) for neighbor, i in scan if not mpr >> i & 1),
                key=lambda candidate: (
                    _popcount(covers[candidate[1]] & uncovered),
                    len(view.neighbors_of(candidate[0])),
                    -candidate[0],
                ),
            )
            gained = covers[best] & uncovered
            if not gained:
                # Remaining two-hop neighbors are not coverable (inconsistent tables); stop
                # rather than loop forever.
                break
            mpr |= 1 << best
            uncovered ^= gained

    return frozenset(mask_members(coverage.hops, mpr))


def mpr_selectors(mpr_sets: Dict[NodeId, FrozenSet[NodeId]]) -> Dict[NodeId, FrozenSet[NodeId]]:
    """Invert per-node MPR sets into per-node MPR-selector sets.

    ``mpr_selectors(sets)[m]`` is the set of nodes that chose ``m`` as an MPR -- the set a
    real OLSR node advertises in its TC messages.
    """
    selectors: Dict[NodeId, Set[NodeId]] = {}
    for node, selected in mpr_sets.items():
        for relay in selected:
            selectors.setdefault(relay, set()).add(node)
    return {node: frozenset(chosen_by) for node, chosen_by in selectors.items()}
