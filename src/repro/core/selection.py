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

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

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
        previous: Optional[Dict[NodeId, SelectionResult]] = None,
        dirty: Optional[Iterable[NodeId]] = None,
    ) -> Dict[NodeId, SelectionResult]:
        """Run the selection at every node of a network (convenience for experiments).

        Views are built in one batched adjacency pass rather than node by node (``network``
        is only consulted when ``views`` is not supplied).  Callers that run several
        selectors (or several metrics) on the same network should build the batch once and
        pass it as ``views``: each view memoizes its per-metric compact graph, so sharing
        the views shares that work across runs (this is what the sweep harness does
        through :class:`repro.experiments.runner.Trial`).

        ``previous`` and ``dirty`` (always passed together) make the run *incremental*:
        ``previous`` is a complete earlier result on the same metric and ``dirty`` names
        the owners whose local view has changed since.  Selection is a pure function of
        ``(view, metric)``, so every owner outside ``dirty`` reuses its previous
        :class:`SelectionResult` verbatim and only dirty (or newly appeared) owners re-run
        the selector -- bit-identical to a from-scratch run, just cheaper.  Dynamic trials
        drive this through :class:`SelectionCache` with the dirty sets reported by
        :attr:`StepDelta.dirty <repro.mobility.dynamic.StepDelta.dirty>`.
        """
        if (previous is None) != (dirty is None):
            raise ValueError("previous and dirty must be passed together")
        if views is None:
            views = LocalView.all_from_network(network)
        if previous is None:
            with obs.span("selection"):
                self.prime(list(views.values()), metric)
                results = {node: self.select(view, metric) for node, view in views.items()}
            obs.add("selection.full_runs")
            obs.add("selection.owners_selected", len(results))
            return results
        if not isinstance(dirty, (set, frozenset)):
            dirty = set(dirty)
        with obs.span("selection"):
            # Batch only the owners that will actually re-run: everyone else's result is
            # reused verbatim below, so priming them would be pure waste.
            self.prime(
                [
                    view
                    for node, view in views.items()
                    if previous.get(node) is None or node in dirty
                ],
                metric,
            )
            results: Dict[NodeId, SelectionResult] = {}
            reused = 0
            for node, view in views.items():
                cached = previous.get(node)
                if cached is not None and node not in dirty:
                    results[node] = cached
                    reused += 1
                else:
                    results[node] = self.select(view, metric)
        obs.add("selection.incremental_runs")
        obs.add("selection.cache_hits", reused)
        obs.add("selection.owners_selected", len(results) - reused)
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
    """Per-``(selector, metric)`` selection results reused across dynamic-trial timesteps.

    The last cache layer of the harness, same philosophy as the compact-graph caches on
    :class:`~repro.localview.view.LocalView`: selection is a pure function of the owner's
    local view and the metric, so results stay valid exactly until the view changes.  A
    dynamic trial therefore only has to re-run a selector on the nodes each step's
    :attr:`StepDelta.dirty <repro.mobility.dynamic.StepDelta.dirty>` set names; everyone
    else's :class:`SelectionResult` is reused verbatim from the previous step.

    Usage: register :meth:`on_step` as a step listener of the trial's
    :class:`~repro.mobility.dynamic.DynamicTopology` (which
    :meth:`Trial.step_selections <repro.experiments.runner.Trial.step_selections>` does for
    you), then call :meth:`select_all` whenever a selector's current-step results are
    needed.  Invalidations accumulate *per key*: a key selected every step only re-runs
    the last step's dirty owners, while a key first selected after several steps re-runs
    the union of everything dirtied since its previous selection.  The cache is per-trial
    and therefore per-worker under ``REPRO_WORKERS``, and cached incremental selection is
    pinned bit-identical to from-scratch per-step selection by
    ``tests/test_incremental_selection.py``.
    """

    def __init__(self) -> None:
        self._results: Dict[Tuple[str, object], Dict[NodeId, SelectionResult]] = {}
        self._dirty: Dict[Tuple[str, object], Set[NodeId]] = {}

    def on_step(self, delta) -> None:
        """Step-listener hook: invalidate the owners a :class:`StepDelta` dirtied."""
        self.invalidate(delta.dirty)

    def invalidate(self, nodes: Iterable[NodeId]) -> None:
        """Mark ``nodes`` as needing re-selection in every cached (selector, metric) key."""
        nodes = set(nodes)
        for pending in self._dirty.values():
            pending |= nodes

    def clear(self) -> None:
        """Drop every cached result (the next ``select_all`` per key runs from scratch)."""
        self._results.clear()
        self._dirty.clear()

    def select_all(
        self,
        selector_name: str,
        metric: Metric,
        views: Dict[NodeId, LocalView],
        network=None,
    ) -> Dict[NodeId, SelectionResult]:
        """Current per-node results of one selector, re-running only dirty owners."""
        key = (selector_name, metric.cache_token())
        selector = make_selector(selector_name)
        previous = self._results.get(key)
        if previous is None:
            obs.add("selection.cache_cold_keys")
            results = selector.select_all(network, metric, views=views)
        else:
            obs.observe("selection.dirty_owners", len(self._dirty[key]))
            results = selector.select_all(
                network, metric, views=views, previous=previous, dirty=self._dirty[key]
            )
        self._results[key] = results
        self._dirty[key] = set()
        return results


def register_selector(name: str, factory: Callable[[], AnsSelector]) -> None:
    """Register a selector factory under ``name`` (last registration wins).

    Thin wrapper over the unified :data:`repro.registry.SELECTORS` registry, kept for
    backward compatibility; new code can register through the registry's decorator
    directly (see :mod:`repro.registry`).  The built-in selectors register themselves in
    their defining modules and are loaded lazily on first lookup.
    """
    SELECTORS.register(name, factory)


def available_selectors() -> list[str]:
    """Names of every registered selector."""
    return SELECTORS.names()


def make_selector(name: str) -> AnsSelector:
    """Instantiate the selector registered under ``name``."""
    return SELECTORS.create(name)
