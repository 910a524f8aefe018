"""FNBP -- *First Node on Best Path* based QANS selection (the paper's contribution).

The selection runs locally at every node ``u`` over its two-hop view ``G_u`` and produces the
QoS Advertised Neighbor Set ``ANS(u)`` that ``u`` will announce in its TC messages.  It works
for any additive or concave metric; the paper spells it out for bandwidth (Algorithm 1) and
delay (Algorithm 2), which differ only in which direction "better" points -- exactly the
abstraction captured by :class:`~repro.metrics.base.Metric`.

Step 1 -- one-hop neighbors (lines 1-7 of the paper's algorithms).
    For every one-hop neighbor ``v``, compute ``fP(u, v)``, the set of first nodes of the
    QoS-optimal paths from ``u`` to ``v`` inside ``G_u``.  If the direct link is itself
    optimal (``v ∈ fP(u, v)``), nothing needs to be advertised.  Otherwise, if some already
    selected ANS member is in ``fP(u, v)``, ``v`` is already covered through it.  Otherwise
    select from ``fP(u, v)`` the node whose *direct link from u* is best (ties broken by
    smallest identifier -- the paper's ``max_{≺BW}`` / ``min_{≺D}`` operator).

Step 2 -- two-hop neighbors (lines 8-17).
    Same computation for every two-hop neighbor ``v``: if no current ANS member is a first
    node of an optimal path, select the preferred member of ``fP(u, v)``.  When ``v`` *is*
    already covered, the paper adds a guard against the "limiting last link" pathology of its
    Figure 4: if ``u``'s identifier is smaller than that of every node in ``fP(u, v)``,
    ``u`` must additionally select a relay ``w`` such that the two-hop path ``u-w-v`` exists,
    so that ``v`` cannot end up unreachable when the nodes on the good paths all defer to one
    another.  See :class:`LoopGuardPolicy` for the exact rule and the documented deviation
    from the (typo-ridden) printed pseudocode.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core import selection
from repro.core.selection import SelectionDecision, _TracedSelector
from repro.localview.paths import TargetRows, all_first_hops, primed_first_hops
from repro.localview.view import LocalView
from repro.metrics.base import Metric
from repro.metrics.ordering import preferred_neighbor
from repro.registry import SELECTORS
from repro.utils.ids import NodeId

#: One FNBP decision, as masks over the owner's sorted one-hop neighbours: the bit it
#: adds to the ANS (0 for none), the reason tag, and the candidates whose preferred
#: member the trace names as the relay (``None`` when it names no relay).
_Step = Tuple[int, str, Optional[int]]


def covering_relays(result) -> dict:
    """Extract, from a traced FNBP :class:`SelectionResult`, the relay used to cover each target.

    For every one- or two-hop neighbor ``v`` of the owner, the returned mapping gives the
    neighbor the owner relies on to reach ``v``: the target itself when the direct link is
    optimal, the selected ANS member otherwise.  This is the "local forwarding" relation the
    paper's Figure 4 discussion refers to -- when two nodes' relays for the same destination
    point at each other, packets loop (see :mod:`repro.papergraphs.figure4`).

    The relays are read off the decision trace, so ``result`` must come from
    :meth:`AnsSelector.explain`; an untraced ``select`` result raises ``ValueError``.
    """
    relays = {}
    for decision in result._recorded_decisions("covering_relays"):
        if decision.target is None:
            continue
        relay = decision.detail_dict().get("relay")
        if relay is not None:
            relays[decision.target] = relay
    return relays


class LoopGuardPolicy(Enum):
    """How FNBP handles a two-hop neighbor that is already covered by the current ANS.

    The guard exists because of the paper's Figure 4: when the last link towards a two-hop
    neighbor is the QoS bottleneck, two nodes can each decide that the *other* already covers
    the destination, leaving it unreachable.  The fix makes the node with the smallest
    identifier among the involved nodes take responsibility.
    """

    ADJACENT_TO_TARGET = "adjacent-to-target"
    """Default, following the paper's prose and Figure 4 walk-through: when the owner's id is
    smaller than every id in ``fP(u, v)``, additionally select a relay ``w`` adjacent to the
    target (the path ``u-w-v`` exists in ``G_u``), preferring relays that are also first
    nodes of an optimal path, then the best direct link, then the smallest identifier."""

    LITERAL = "literal"
    """Follow the printed pseudocode word for word (select from ``fP(u, v) ∩ N(u)``, which is
    simply ``fP(u, v)``).  Kept as an ablation; it does *not* repair the Figure 4 situation
    because the selected relay need not be adjacent to the target."""

    OFF = "off"
    """No guard at all (skip lines 12-14).  Kept as an ablation to demonstrate the loop."""


@SELECTORS.register("fnbp", description="the paper's FNBP QANS selection")
@dataclass
class FnbpSelector(_TracedSelector):
    """The paper's FNBP QANS selection.

    Parameters
    ----------
    loop_guard:
        Policy for the already-covered two-hop case (see :class:`LoopGuardPolicy`).
    cover_one_hop:
        When False, step 1 is skipped entirely (ANS members are only selected for two-hop
        neighbors).  This is an ablation switch quantifying how much of FNBP's benefit comes
        from re-routing around weak direct links; the paper's algorithm always runs step 1.

    :meth:`select` returns the ANS alone.  :meth:`explain` adds one decision per target,
    whose detail holds the sorted first hops, the best value and (unless unreachable) the
    relay that covers the target, which :func:`covering_relays` reads.
    """

    loop_guard: LoopGuardPolicy = LoopGuardPolicy.ADJACENT_TO_TARGET
    cover_one_hop: bool = True

    name = "fnbp"

    def __post_init__(self) -> None:
        if isinstance(self.loop_guard, str):
            self.loop_guard = LoopGuardPolicy(self.loop_guard)

    # ------------------------------------------------------------------ selection

    def prime(self, views: List[LocalView], metric: Metric) -> None:
        # FNBP's per-view cost is one all_first_hops solve; batch those over the shared
        # network CSR for the views attached to one.
        selection.prime_first_hops(views, metric)

    def _select(
        self, view: LocalView, metric: Metric, trace: Optional[List[SelectionDecision]]
    ) -> FrozenSet[NodeId]:
        """Step 1 over the one-hop targets, then step 2 over the two-hop targets.

        Runs on the view's :class:`TargetRows` -- primed by :meth:`prime`, else the
        scalar ``all_first_hops`` result encoded -- with every set a mask over the
        owner's sorted one-hop neighbours: ``fP(u, v)`` is the target's tie mask, and the
        ANS is a mask too.  Each decision is ``(chosen, reason, relay_pool)`` in masks;
        only a trace reads the last two, naming the preferred member of ``relay_pool``
        as the relay, and only a trace decodes a row.
        """
        rows = primed_first_hops(view, metric)
        if rows is None:
            first_hops = all_first_hops(view, metric)
            rows = TargetRows.encode(
                sorted(view.one_hop),
                [first_hops[target] for target in (*sorted(view.one_hop), *sorted(view.two_hop))],
            )
        hops, masks = rows.hops, rows.masks
        degree = len(hops)  # rows [0, degree) are the one-hop targets, in bit order
        prefer = _preference(rows, metric, view.direct_link_values(metric))
        guard_off = self.loop_guard is LoopGuardPolicy.OFF
        ans = 0
        for k in range(0 if self.cover_one_hop else degree, len(masks)):
            mask = masks[k]
            already = mask & ans
            if not mask:
                # Cannot happen for a genuine neighbor, but guard against inconsistent
                # protocol tables.
                chosen, reason, relay_pool = 0, "unreachable-in-view", None
            elif k < degree and mask >> k & 1:
                # Step 1: the direct link is optimal, nothing to advertise.
                chosen, reason, relay_pool = 0, "direct-link-optimal", 1 << k
            elif not already:
                chosen = 1 << prefer(mask)
                reason, relay_pool = "selected-first-node-on-best-path", chosen
            elif k < degree or guard_off:
                chosen, reason, relay_pool = 0, "covered-by-existing-ans", already
            elif not view.owner < hops[(mask & -mask).bit_length() - 1]:
                # Covered, and the lowest bit, the smallest identifier in fP(u, v), is
                # below the owner's: the loop guard is not the owner's to apply.
                chosen, reason, relay_pool = 0, "covered-by-existing-ans", already
            else:
                chosen, reason, relay_pool = self._loop_guard(view, rows, k, ans, prefer)
            ans |= chosen
            if trace is not None:
                target, best_value, first_hops = rows.decode(k)
                detail = (("first_hops", first_hops), ("best_value", best_value))
                if relay_pool is not None:
                    detail += (("relay", hops[prefer(relay_pool)]),)
                chosen_node = hops[chosen.bit_length() - 1] if chosen else None
                trace.append(SelectionDecision(target, chosen_node, reason, detail))

        return frozenset(rows.members(ans))

    # ------------------------------------------------------------------ step 2 guard

    def _loop_guard(self, view: LocalView, rows: TargetRows, k: int, ans: int, prefer) -> _Step:
        """Lines 12-14 / the Figure 4 fix for the covered two-hop target of row ``k``.

        ``ADJACENT_TO_TARGET`` reads the target's relays -- the one-hop neighbours ``w``
        with a path ``u-w-v`` -- as a mask from ``view.coverage()``, whose two-hop order is
        the rows' two-hop block.
        """
        mask = rows.masks[k]
        if self.loop_guard is LoopGuardPolicy.LITERAL:
            # The printed text: select from fP(u, v) ∩ N(u), which is fP(u, v) itself.
            chosen = 1 << prefer(mask)
            if chosen & ans:
                return 0, "loop-guard-already-selected", chosen
            return chosen, "loop-guard-literal", chosen

        # ADJACENT_TO_TARGET: the owner must guarantee a two-hop path u-w-v, preferring
        # relays that also start an optimal path.
        relays = view.coverage().relays[k - len(rows.hops)]
        if not relays:
            return 0, "loop-guard-no-two-hop-relay", mask & ans
        preferred_pool = relays & mask or relays
        already_adjacent = preferred_pool & ans
        if already_adjacent:
            return 0, "loop-guard-relay-already-selected", already_adjacent
        chosen = 1 << prefer(preferred_pool)
        return chosen, "loop-guard-selected-relay", chosen


def _preference(rows: TargetRows, metric: Metric, direct_values) -> Callable[[int], int]:
    """``prefer(mask)``: the bit of the preferred neighbour among the set bits of ``mask``.

    The paper's ``max_{≺BW}`` / ``min_{≺D}`` (:func:`preferred_neighbor`) over the
    candidates in bit order, that is by identifier, memoized per mask.
    """
    hops = rows.hops
    picks: Dict[int, int] = {}

    def prefer(mask: int) -> int:
        bit = picks.get(mask)
        if bit is None:
            chosen = preferred_neighbor(rows.members(mask), metric, direct_values.__getitem__)
            bit = picks[mask] = bisect_left(hops, chosen)
        return bit

    return prefer


#: The ablation variants ship under their own registry names so that specs and the
#: ``repro-sweep`` CLI can refer to them directly.
SELECTORS.register(
    "fnbp-literal-guard",
    lambda: FnbpSelector(loop_guard=LoopGuardPolicy.LITERAL),
    description="FNBP with the paper's literal (typo-ridden) loop-guard pseudocode",
)
SELECTORS.register(
    "fnbp-no-guard",
    lambda: FnbpSelector(loop_guard=LoopGuardPolicy.OFF),
    description="FNBP without the loop guard (ablation; can strand two-hop neighbors)",
)
SELECTORS.register(
    "fnbp-two-hop-only",
    lambda: FnbpSelector(cover_one_hop=False),
    description="FNBP covering two-hop neighbors only (ablation of step 1)",
)
