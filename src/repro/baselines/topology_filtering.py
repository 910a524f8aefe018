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

Both steps reduce to one per-target table (target, best value, sorted best first hops)
per view.  ``select_all`` primes that table for every view attached to the trial's
shared CSR through the batched kernel of :mod:`repro.localview.filtering`; ``select``
builds its decisions from the primed table, or computes the table on the view's own
graph (the scalar path above, which is also the kernel's test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import networkx as nx

from repro.core.selection import AnsSelector, SelectionDecision, SelectionResult
from repro.localview.filtering import TableRow, prime_filtering_tables, table_key
from repro.localview.rng import qos_rng_reduce
from repro.localview.view import LocalView
from repro.metrics.base import Metric
from repro.obs import runtime as obs
from repro.registry import SELECTORS
from repro.utils.ids import NodeId


@SELECTORS.register("topology-filtering", description="QANS selection by RNG-based topology filtering")
@dataclass
class TopologyFilteringSelector(AnsSelector):
    """QANS selection by RNG-based topology filtering.

    Parameters
    ----------
    apply_reduction:
        When False, skip the RNG reduction and run the first-hop collection on the raw view.
        This ablation isolates how much of the set-size reduction comes from the filtering
        itself versus from restricting to best paths.
    """

    apply_reduction: bool = True

    name = "topology-filtering"

    def prime(self, views: List[LocalView], metric: Metric) -> None:
        prime_filtering_tables(views, metric, self.apply_reduction)

    def select(self, view: LocalView, metric: Metric) -> SelectionResult:
        # A table primed by select_all is handed over once: dropping it here keeps the
        # batch's tables from outliving the selection loop.
        table = view._first_hops.pop(table_key(metric, self.apply_reduction), None)
        if table is None:
            obs.add("filtering.scalar_views")
            table = self._scalar_table(view, metric)
        else:
            obs.add("filtering.batched_views")
        ans: Set[NodeId] = set()
        decisions: List[SelectionDecision] = []

        for target, best_value, first_hops in table:
            detail: Tuple[Tuple[str, object], ...] = (
                ("first_hops", first_hops),
                ("best_value", best_value),
            )
            if not first_hops:
                decisions.append(SelectionDecision(target, None, "unreachable-in-reduced-view", detail))
                continue
            if first_hops == (target,):
                decisions.append(SelectionDecision(target, None, "direct-link-optimal", detail))
                continue
            newly = [hop for hop in first_hops if hop != target and hop not in ans]
            ans.update(newly)
            decisions.append(
                SelectionDecision(
                    target,
                    newly[0] if newly else None,
                    "advertise-all-best-first-hops",
                    detail + (("added", tuple(newly)),),
                )
            )

        return SelectionResult(
            owner=view.owner,
            selector_name=self.name,
            metric_name=metric.name,
            selected=frozenset(ans),
            decisions=tuple(decisions),
        )

    # ------------------------------------------------------------------ internals

    def _scalar_table(self, view: LocalView, metric: Metric) -> List[TableRow]:
        """The per-target table of one view, from its own networkx graph.

        The oracle of the batched kernel (:mod:`repro.localview.filtering`) and the path
        for every view it does not serve.
        """
        graph = qos_rng_reduce(view.graph, metric) if self.apply_reduction else view.graph
        table: List[TableRow] = []
        for target in sorted(view.one_hop | view.two_hop):
            best_value, first_hops = self._best_two_hop_first_hops(view, graph, target, metric)
            if not first_hops and self.apply_reduction:
                # The RNG reduction preserves global QoS-optimal connectivity but not
                # necessarily a <=2-hop path to every neighbor; fall back to the unreduced
                # view so the baseline never leaves a known neighbor uncovered.
                best_value, first_hops = self._best_two_hop_first_hops(view, view.graph, target, metric)
            table.append((target, best_value, tuple(sorted(first_hops))))
        return table

    def _best_two_hop_first_hops(
        self,
        view: LocalView,
        graph: nx.Graph,
        target: NodeId,
        metric: Metric,
    ) -> Tuple[float, Set[NodeId]]:
        """Best value and first hops of paths of at most two hops from the owner to ``target``.

        Candidate paths are the direct (possibly reduced-away) link ``owner-target`` and the
        two-hop detours ``owner-w-target`` for every surviving relay ``w``.
        """
        owner = view.owner
        candidates: Dict[NodeId, float] = {}
        if graph.has_edge(owner, target):
            candidates[target] = metric.link_value_from_attributes(graph.adj[owner][target])
        for relay in view.one_hop:
            if relay == target or not graph.has_edge(owner, relay) or not graph.has_edge(relay, target):
                continue
            first_leg = metric.link_value_from_attributes(graph.adj[owner][relay])
            second_leg = metric.link_value_from_attributes(graph.adj[relay][target])
            candidates[relay] = metric.combine(metric.combine(metric.identity, first_leg), second_leg)

        if not candidates:
            return metric.worst, set()
        best_value = metric.optimum(candidates.values())
        first_hops = {
            node for node, value in candidates.items() if metric.values_equal(value, best_value)
        }
        return best_value, first_hops
