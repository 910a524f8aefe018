"""The neighbor-selection framework shared by FNBP and every baseline.

A *selector* consumes a node's :class:`~repro.localview.view.LocalView` and a
:class:`~repro.metrics.base.Metric` and produces the set of neighbors the node will advertise
in its TC messages (the paper's ANS / QANS, or the plain MPR set when the protocol does not
distinguish the two).  :meth:`AnsSelector.select` returns just that set, which is all the
sweeps read; :meth:`AnsSelector.explain` returns the same set with a decision trace, so that
examples, tests and the worked-figure walk-throughs can explain *why* each node was (not)
selected.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

# FnbpSelector.prime calls prime_first_hops through this module, so patching the name
# here (tests, perfbench's tracer) reaches every batched first-hop priming.
from repro.localview.paths import prime_first_hops  # noqa: F401
from repro.localview.view import LocalView
from repro.metrics.base import Metric
from repro.obs import runtime as obs
from repro.registry import SELECTORS
from repro.utils.ids import NodeId


class SelectionDecision(NamedTuple):
    """One step of a selector's reasoning, recorded by :meth:`AnsSelector.explain`.

    A named tuple: a traced selection builds one per target, and it is about twice as
    cheap to build as a frozen dataclass.

    Attributes
    ----------
    target:
        The one- or two-hop neighbor being covered (or ``None`` for global steps such as the
        RFC 3626 greedy rounds).
    chosen:
        The neighbor added to the advertised set at this step (``None`` when nothing was
        added).
    reason:
        A short machine-readable tag, e.g. ``"direct-link-optimal"`` or ``"loop-guard"``.
    detail:
        Optional extra payload (candidate sets, best values) for human-readable reports.
    """

    target: Optional[NodeId]
    chosen: Optional[NodeId]
    reason: str
    detail: Tuple[Tuple[str, object], ...] = ()

    def detail_dict(self) -> Dict[str, object]:
        """The ``detail`` payload as a dictionary."""
        return dict(self.detail)


@dataclass(frozen=True)
class SelectionResult:
    """The advertised neighbor set chosen by a selector for one node.

    ``decisions`` is the decision trace, or ``None`` when it was not recorded.  The
    built-in selectors record it under :meth:`AnsSelector.explain` only: their
    :meth:`AnsSelector.select`, which every sweep calls, returns ``decisions=None``.  The
    default ``()`` keeps selectors that fill the field themselves working unchanged.
    """

    owner: NodeId
    selector_name: str
    metric_name: str
    selected: FrozenSet[NodeId]
    decisions: Optional[Tuple[SelectionDecision, ...]] = ()

    def __len__(self) -> int:
        return len(self.selected)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.selected

    def _recorded_decisions(self, reader: str) -> Tuple[SelectionDecision, ...]:
        """The trace, or a ``ValueError`` naming ``reader`` when none was recorded."""
        if self.decisions is None:
            raise ValueError(
                f"{reader} needs a decision trace, but the {self.selector_name} selection at "
                f"node {self.owner} has none: select() does not record one, "
                f"AnsSelector.explain does"
            )
        return self.decisions

    def explain(self) -> str:
        """A multi-line human-readable account of the selection (used by examples).

        Needs the trace: raises ``ValueError`` on a result of :meth:`AnsSelector.select`
        that recorded none (use :meth:`AnsSelector.explain`).
        """
        decisions = self._recorded_decisions("SelectionResult.explain()")
        lines = [
            f"{self.selector_name} selection at node {self.owner} "
            f"({self.metric_name}): {sorted(self.selected)}"
        ]
        for decision in decisions:
            target = "-" if decision.target is None else str(decision.target)
            chosen = "-" if decision.chosen is None else str(decision.chosen)
            lines.append(f"  target {target:>4}: {decision.reason:<28} chosen={chosen}")
        return "\n".join(lines)


class AnsSelector(ABC):
    """Interface of every advertised-neighbor-set selection algorithm.

    :meth:`select` returns the advertised set; :meth:`explain` returns the same result
    with its decision trace.  Every sweep path (:meth:`select_all`,
    :class:`SelectionCache`, the OLSR node) calls :meth:`select`.  Each built-in selector
    runs one selection routine for both (``_select``, see :class:`_TracedSelector`), with
    a trace sink that is ``None`` under :meth:`select`: it then builds no
    :class:`SelectionDecision` at all.
    """

    #: Registry / display name of the algorithm.
    name: str = "abstract"

    @abstractmethod
    def select(self, view: LocalView, metric: Metric) -> SelectionResult:
        """Run the selection at ``view.owner`` for the given metric.

        The result's ``decisions`` may be ``None`` (not recorded); :meth:`explain` records
        them.
        """

    def explain(self, view: LocalView, metric: Metric) -> SelectionResult:
        """:meth:`select`'s result with its decision trace recorded in ``decisions``.

        The default is ``self.select(view, metric)``, which serves a selector whose
        ``select`` records its trace already.
        """
        return self.select(view, metric)

    def prime(self, views: List[LocalView], metric: Metric) -> None:
        """Batch-precompute, for the ``views`` about to be selected, what ``select`` reads.

        :meth:`select_all` calls this once per run with exactly the views it will pass
        to :meth:`select`, so the scalar solvers only run where batching is impossible.
        Primed results must be bit-identical to what ``select`` computes without them;
        views the batched path cannot serve are left alone.  The default primes nothing.
        """

    def select_all(
        self,
        network,
        metric: Metric,
        views: Optional[Dict[NodeId, LocalView]] = None,
    ) -> Dict[NodeId, SelectionResult]:
        """Run the selection at every node of a network, or at every view of ``views``.

        Views are built in one batched adjacency pass rather than node by node (``network``
        is only consulted when ``views`` is not supplied).  The views are primed together
        (:meth:`prime`) and then selected one by one, in ``views`` order.  Callers that run
        several selectors (or several metrics) on the same views share each view's
        per-metric caches across those runs; the sweep harness does so, and reuses whole
        results across calls, through :class:`SelectionCache`.
        """
        if views is None:
            views = LocalView.all_from_network(network)
        with obs.span("selection"):
            self.prime(list(views.values()), metric)
            results = {node: self.select(view, metric) for node, view in views.items()}
        obs.add("selection.owners_selected", len(results))
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class _TracedSelector(AnsSelector):
    """Base of the built-in selectors: one routine, :meth:`_select`, serves both
    :meth:`select` (no trace) and :meth:`explain` (trace recorded)."""

    def select(self, view: LocalView, metric: Metric) -> SelectionResult:
        return self._result(view, metric, None)

    def explain(self, view: LocalView, metric: Metric) -> SelectionResult:
        return self._result(view, metric, [])

    @abstractmethod
    def _select(
        self, view: LocalView, metric: Metric, trace: Optional[List[SelectionDecision]]
    ) -> FrozenSet[NodeId]:
        """The advertised set at ``view.owner``.

        ``trace`` is ``None`` under :meth:`select`, and the routine then builds no
        :class:`SelectionDecision`; under :meth:`explain` it is a list the routine appends
        its decisions to.
        """

    def _result(
        self, view: LocalView, metric: Metric, trace: Optional[List[SelectionDecision]]
    ) -> SelectionResult:
        selected = self._select(view, metric, trace)
        return SelectionResult(
            owner=view.owner,
            selector_name=self.name,
            metric_name=metric.name,
            selected=selected,
            decisions=None if trace is None else tuple(trace),
        )


class SelectionCache:
    """Per-``(selector, metric)`` selection results, kept while their owner's view is.

    Selection is a pure function of the owner's local view and the metric, and a
    :class:`~repro.localview.view.LocalView` never changes, so a result stays valid as
    long as its owner is handed the very view object it was computed on.  For each
    ``(selector registry name, metric cache token)`` key the cache holds, from that key's
    last :meth:`select_all`, every owner's result with a weak reference to its view; the
    next call re-runs the selector only at the owners whose view is not that object (or
    who have no result yet), and reuses every other result verbatim.

    That one rule serves every analytic sweep of a :class:`Trial
    <repro.experiments.runner.Trial>`: its static views are never replaced, so a second
    selection of a key runs nothing, and a
    :class:`~repro.mobility.dynamic.DynamicTopology` step gives new views to exactly the
    owners of its :attr:`StepDelta.dirty <repro.mobility.dynamic.StepDelta.dirty>` set,
    so a key selected every step re-runs that set and a key selected after several steps
    re-runs the union of theirs.  The references are weak, so the cache keeps no replaced
    view (nor the graph it was built on) alive.  The cache is per-trial and therefore
    per-worker under ``REPRO_WORKERS``; cached selection is pinned bit-identical to
    from-scratch per-step selection by ``tests/test_incremental_selection.py``.
    """

    def __init__(self) -> None:
        self._held: Dict[
            Tuple[str, object], Dict[NodeId, Tuple[weakref.ref, SelectionResult]]
        ] = {}

    def select_all(
        self, selector_name: str, metric: Metric, views: Dict[NodeId, LocalView]
    ) -> Dict[NodeId, SelectionResult]:
        """Every owner's result of one selector on ``views``, in ``views`` order.

        Only the owners whose view is not the one their held result was computed on run
        the selector, in one :meth:`AnsSelector.select_all` call (so they prime together).
        """
        key = (selector_name, metric.cache_token())
        held = self._held.get(key, {})
        stale = {}
        for node, view in views.items():
            entry = held.get(node)
            if entry is None or entry[0]() is not view:
                stale[node] = view
        fresh = (
            make_selector(selector_name).select_all(None, metric, views=stale) if stale else {}
        )
        obs.add("selection.cache_hits", len(views) - len(stale))
        entries = {}
        for node, view in views.items():
            result = fresh.get(node)
            entries[node] = held[node] if result is None else (weakref.ref(view), result)
        self._held[key] = entries
        return {node: entry[1] for node, entry in entries.items()}


def available_selectors() -> list[str]:
    """Names of every registered selector."""
    return SELECTORS.names()


def make_selector(name: str) -> AnsSelector:
    """Instantiate the selector registered under ``name``."""
    return SELECTORS.create(name)
