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

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core import selection
from repro.core.selection import AnsSelector, SelectionDecision, SelectionResult
from repro.localview.paths import FirstHopResult, all_first_hops
from repro.localview.view import LocalView
from repro.metrics.base import Metric
from repro.metrics.ordering import preferred_neighbor
from repro.registry import SELECTORS
from repro.utils.ids import NodeId


def covering_relays(result) -> dict:
    """Extract, from an FNBP :class:`SelectionResult`, the relay used to cover each target.

    For every one- or two-hop neighbor ``v`` of the owner, the returned mapping gives the
    neighbor the owner relies on to reach ``v``: the target itself when the direct link is
    optimal, the selected ANS member otherwise.  This is the "local forwarding" relation the
    paper's Figure 4 discussion refers to -- when two nodes' relays for the same destination
    point at each other, packets loop (see :mod:`repro.papergraphs.figure4`).
    """
    relays = {}
    for decision in result.decisions:
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
class FnbpSelector(AnsSelector):
    """The paper's FNBP QANS selection.

    Parameters
    ----------
    loop_guard:
        Policy for the already-covered two-hop case (see :class:`LoopGuardPolicy`).
    cover_one_hop:
        When False, step 1 is skipped entirely (ANS members are only selected for two-hop
        neighbors).  This is an ablation switch quantifying how much of FNBP's benefit comes
        from re-routing around weak direct links; the paper's algorithm always runs step 1.
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

    def select(self, view: LocalView, metric: Metric) -> SelectionResult:
        ans: Set[NodeId] = set()
        decisions: List[SelectionDecision] = []
        first_hop_sets = all_first_hops(view, metric)
        direct_value = view.direct_link_values(metric).__getitem__
        # First-hop sets repeat across targets: sort each distinct one once.
        sorted_hops: Dict[FrozenSet[NodeId], Tuple[NodeId, ...]] = {}

        def decide(step, target: NodeId) -> SelectionDecision:
            result = first_hop_sets[target]
            hops = sorted_hops.get(result.first_hops)
            if hops is None:
                hops = sorted_hops[result.first_hops] = tuple(sorted(result.first_hops))
            detail = (("first_hops", hops), ("best_value", result.best_value))
            return step(view, metric, ans, target, result, detail, direct_value)

        # ---- Step 1: one-hop neighbors -------------------------------------------------
        if self.cover_one_hop:
            for target in sorted(view.one_hop):
                decisions.append(decide(self._step_one_decision, target))
        # ---- Step 2: two-hop neighbors -------------------------------------------------
        for target in sorted(view.two_hop):
            decisions.append(decide(self._step_two_decision, target))

        return SelectionResult(
            owner=view.owner,
            selector_name=self.name,
            metric_name=metric.name,
            selected=frozenset(ans),
            decisions=tuple(decisions),
        )

    # ------------------------------------------------------------------ step 1

    def _step_one_decision(
        self,
        view: LocalView,
        metric: Metric,
        ans: Set[NodeId],
        target: NodeId,
        result: FirstHopResult,
        detail: tuple,
        direct_value,
    ) -> SelectionDecision:
        if not result.reachable:
            # Cannot happen for a genuine one-hop neighbor (the direct link always exists),
            # but guard against inconsistent protocol tables.
            return SelectionDecision(target, None, "unreachable-in-view", detail)
        if result.direct_link_is_optimal():
            return SelectionDecision(target, None, "direct-link-optimal", detail + (("relay", target),))
        already = result.first_hops & ans
        if already:
            relay = preferred_neighbor(already, metric, direct_value)
            return SelectionDecision(target, None, "covered-by-existing-ans", detail + (("relay", relay),))
        chosen = preferred_neighbor(result.first_hops, metric, direct_value)
        ans.add(chosen)
        return SelectionDecision(
            target, chosen, "selected-first-node-on-best-path", detail + (("relay", chosen),)
        )

    # ------------------------------------------------------------------ step 2

    def _step_two_decision(
        self,
        view: LocalView,
        metric: Metric,
        ans: Set[NodeId],
        target: NodeId,
        result: FirstHopResult,
        detail: tuple,
        direct_value,
    ) -> SelectionDecision:
        if not result.reachable:
            return SelectionDecision(target, None, "unreachable-in-view", detail)
        already = result.first_hops & ans
        if not already:
            chosen = preferred_neighbor(result.first_hops, metric, direct_value)
            ans.add(chosen)
            return SelectionDecision(
                target, chosen, "selected-first-node-on-best-path", detail + (("relay", chosen),)
            )

        covered_relay = preferred_neighbor(already, metric, direct_value)
        covered_detail = detail + (("relay", covered_relay),)

        # Already covered: apply the loop guard (lines 12-14 / the Figure 4 fix).
        if self.loop_guard is LoopGuardPolicy.OFF:
            return SelectionDecision(target, None, "covered-by-existing-ans", covered_detail)

        owner_has_smallest_id = view.owner < min(result.first_hops)
        if not owner_has_smallest_id:
            return SelectionDecision(target, None, "covered-by-existing-ans", covered_detail)

        if self.loop_guard is LoopGuardPolicy.LITERAL:
            # The printed text: select from fP(u, v) ∩ N(u), which is fP(u, v) itself.
            chosen = preferred_neighbor(result.first_hops, metric, direct_value)
            if chosen in ans:
                return SelectionDecision(
                    target, None, "loop-guard-already-selected", detail + (("relay", chosen),)
                )
            ans.add(chosen)
            return SelectionDecision(target, chosen, "loop-guard-literal", detail + (("relay", chosen),))

        # ADJACENT_TO_TARGET: the owner must guarantee a two-hop path u-w-v, preferring
        # relays that also start an optimal path.
        relays = view.common_relays(target)
        if not relays:
            return SelectionDecision(target, None, "loop-guard-no-two-hop-relay", covered_detail)
        preferred_pool = relays & result.first_hops or relays
        already_adjacent = preferred_pool & ans
        if already_adjacent:
            relay = preferred_neighbor(already_adjacent, metric, direct_value)
            return SelectionDecision(
                target, None, "loop-guard-relay-already-selected", detail + (("relay", relay),)
            )
        chosen = preferred_neighbor(preferred_pool, metric, direct_value)
        ans.add(chosen)
        return SelectionDecision(target, chosen, "loop-guard-selected-relay", detail + (("relay", chosen),))


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
