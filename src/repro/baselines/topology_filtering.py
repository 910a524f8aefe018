"""Topology-filtering QANS selection (Moraru & Simplot-Ryl), the paper's second baseline.

Like FNBP, this approach separates the flooding set (the plain RFC 3626 MPRs) from the
routing set (the QoS Advertised Neighbor Set).  The QANS is obtained in two steps:

1. Reduce the local view ``G_u`` with a relative neighborhood graph using the QoS metric as
   the weight function (:func:`repro.localview.rng.qos_rng_reduce`): a link is dropped when a
   common neighbor offers strictly better QoS on both replacement legs.
2. On the reduced view, for every one- and two-hop neighbor, advertise *every* neighbor that
   starts a QoS-optimal path of at most two hops towards it.  (The two-hop cap is the
   limitation the paper highlights: unlike FNBP, longer detours are never considered, and
   because *all* optimal first hops are kept, the advertised set stays relatively large.)

Both steps reduce to one table per view: a :class:`~repro.localview.paths.TargetRows`
holding, for every target by identifier, its best value and the tie mask of its best
first hops over the owner's sorted one-hop neighbours.  ``select_all`` primes that
table for every view attached to the trial's shared CSR through the batched kernel of
:mod:`repro.localview.filtering`; otherwise ``select`` computes it on the view's link
map (the scalar path above, which is also the kernel's test oracle).  The advertised set
is then the union of every row's mask without the target's own bit.  ``explain`` runs
the same routine and also records one decision per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.selection import SelectionDecision, _TracedSelector
from repro.localview.filtering import prime_filtering_tables, table_key
from repro.localview.paths import TargetRows
from repro.localview.rng import qos_rng_reduce
from repro.localview.view import Links, LocalView
from repro.metrics.base import Metric
from repro.obs import runtime as obs
from repro.registry import SELECTORS
from repro.utils.ids import NodeId


@SELECTORS.register("topology-filtering", description="QANS selection by RNG-based topology filtering")
@dataclass
class TopologyFilteringSelector(_TracedSelector):
    """QANS selection by RNG-based topology filtering.

    :meth:`explain` records one decision per table row: its reason, the sorted best first
    hops, the best value and, when it advertises, the hops it added.
    """

    name = "topology-filtering"

    def prime(self, views: List[LocalView], metric: Metric) -> None:
        prime_filtering_tables(views, metric)

    def _select(
        self, view: LocalView, metric: Metric, trace: Optional[List[SelectionDecision]]
    ) -> FrozenSet[NodeId]:
        # A table primed by select_all is handed over once: dropping it here keeps the
        # batch's tables from outliving the selection loop.
        rows = view._first_hops.pop(table_key(metric), None)
        if rows is None:
            obs.add("filtering.scalar_views")
            rows = self._scalar_table(view, metric)
        else:
            obs.add("filtering.batched_views")
        hops = rows.hops
        ans = 0
        # Targets and hops are both sorted, so the one-hop targets come up in bit order.
        hop, next_hop = 0, hops[0] if hops else None
        for k, (target, mask) in enumerate(zip(rows.targets, rows.masks)):
            target_bit = 0
            if target == next_hop:
                target_bit = 1 << hop
                hop += 1
                next_hop = hops[hop] if hop < len(hops) else None
            advertised = mask & ~target_bit
            if trace is not None:
                target, best_value, first_hops = rows.decode(k)
                detail: Tuple[Tuple[str, object], ...] = (
                    ("first_hops", first_hops),
                    ("best_value", best_value),
                )
                chosen = None
                if not mask:
                    reason = "unreachable-in-reduced-view"
                elif mask == target_bit:
                    reason = "direct-link-optimal"
                else:
                    reason = "advertise-all-best-first-hops"
                    added = rows.members(advertised & ~ans)
                    detail += (("added", added),)
                    chosen = added[0] if added else None
                trace.append(SelectionDecision(target, chosen, reason, detail))
            ans |= advertised

        return frozenset(rows.members(ans))

    # ------------------------------------------------------------------ internals

    def _scalar_table(self, view: LocalView, metric: Metric) -> TargetRows:
        """The table of one view, from its link map.

        The oracle of the batched kernel (:mod:`repro.localview.filtering`) and the path
        for every view it does not serve.
        """
        links = view.links
        reduced = qos_rng_reduce(links, metric)
        entries = []
        for target in sorted(view.one_hop | view.two_hop):
            best_value, first_hops = self._best_two_hop_first_hops(view, reduced, target, metric)
            if not first_hops:
                # The RNG reduction preserves global QoS-optimal connectivity but not
                # necessarily a <=2-hop path to every neighbor; fall back to the unreduced
                # view so the baseline never leaves a known neighbor uncovered.
                best_value, first_hops = self._best_two_hop_first_hops(view, links, target, metric)
            entries.append((target, best_value, first_hops))
        return TargetRows.encode(sorted(view.one_hop), entries)

    def _best_two_hop_first_hops(
        self,
        view: LocalView,
        links: Links,
        target: NodeId,
        metric: Metric,
    ) -> Tuple[float, Set[NodeId]]:
        """Best value and first hops of paths of at most two hops from the owner to ``target``.

        Candidate paths are the direct (possibly reduced-away) link ``owner-target`` and the
        two-hop detours ``owner-w-target`` for every surviving relay ``w``.
        """
        extract = metric.link_value_from_attributes
        owner_row = links[view.owner]
        candidates: Dict[NodeId, float] = {}
        if target in owner_row:
            candidates[target] = extract(owner_row[target])
        for relay in view.one_hop:
            if relay == target or relay not in owner_row:
                continue
            relay_row = links[relay]
            if target not in relay_row:
                continue
            first_leg = extract(owner_row[relay])
            second_leg = extract(relay_row[target])
            candidates[relay] = metric.combine(metric.combine(metric.identity, first_leg), second_leg)

        if not candidates:
            return metric.worst, set()
        best_value = metric.optimum(candidates.values())
        first_hops = {
            node for node, value in candidates.items() if metric.values_equal(value, best_value)
        }
        return best_value, first_hops
