"""Measure kinds: what one sweep trial measures and how trials aggregate into series.

A :class:`Measure` is the pluggable core of the generic experiment engine
(:func:`repro.experiments.engine.run_experiment`).  It provides

* ``per_trial()`` -- a picklable module-level function mapping a :class:`Trial` to a plain
  payload dictionary (it runs inside worker processes under ``REPRO_WORKERS``);
* streaming aggregation -- ``start`` / ``consume`` / ``density_points`` fold payloads into
  per-density :class:`SeriesPoint` objects as soon as a density finishes, which is what lets
  incremental sinks checkpoint long paper-profile sweeps density by density;
* presentation -- the y-axis label, the per-trial progress line, and the footnotes of the
  final result table.

The built-ins reproduce the paper's two experiment families and register themselves in the
unified :data:`repro.registry.MEASURES` registry: ``"ans-size"`` (Figures 6 and 7: mean
advertised-set size per node) and ``"overhead"`` (Figures 8 and 9: achieved QoS versus the
centralized optimum).  Registering a new subclass opens a new measure kind to every spec,
the ``repro-sweep`` CLI and the preset machinery without touching the engine -- a worked,
test-executed example lives in ``docs/extending.md``, and the event stream a measure's
aggregation feeds is specified in ``docs/events.md``.  Time-axis measures (the dynamic
sweeps of :mod:`repro.mobility.measures`) additionally override :meth:`Measure.validate_spec`
and consume the trial's incrementally maintained selections
(:meth:`Trial.step_selections <repro.experiments.runner.Trial.step_selections>`) instead of
re-running every selector from scratch each step.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.results import SeriesPoint
from repro.experiments.runner import Trial
from repro.experiments.stats import summarize
from repro.metrics import Metric, MetricKind
from repro.registry import MEASURES
from repro.routing.hop_by_hop import HopByHopRouter
from repro.routing.optimal import optimal_route


def qos_overhead(metric: Metric, achieved: float, optimal: float) -> float:
    """The paper's overhead of an achieved path value relative to the optimal value."""
    if optimal == 0:
        return float("nan")
    if metric.kind is MetricKind.CONCAVE:
        return (optimal - achieved) / optimal
    return (achieved - optimal) / optimal


class Measure(ABC):
    """One measure kind: per-trial measurement plus streaming aggregation."""

    #: Registry / display name of the measure.
    name: str = "abstract"
    #: The swept quantity (every paper figure sweeps density).
    x_label: str = "density"

    def validate_spec(self, spec) -> None:
        """Reject specs this measure cannot run (called by the engine before any trial).

        The default accepts everything; time-axis measures override it to require
        ``timesteps >= 1`` so a mis-assembled dynamic spec fails fast instead of deep
        inside a worker process.
        """

    @abstractmethod
    def y_label(self, metric: Metric) -> str:
        """The y-axis label of the result table for the given metric."""

    @abstractmethod
    def per_trial(self) -> Callable[[Trial], dict]:
        """The trial measurement: a picklable module-level function (worker-safe)."""

    @abstractmethod
    def start(self, spec) -> object:
        """A fresh accumulator for one sweep of ``spec``."""

    @abstractmethod
    def consume(self, state: object, density: float, payload: dict) -> None:
        """Fold one trial payload (arriving in run order) into the accumulator."""

    @abstractmethod
    def density_points(self, state: object, spec, density: float) -> Dict[str, SeriesPoint]:
        """One finished density summarized as ``{selector_name: SeriesPoint}``."""

    def progress_line(
        self, experiment_id: str, runs: int, density: float, run_index: int, payload: dict
    ) -> Optional[str]:
        """The human-readable progress message for one trial (``None`` = stay silent)."""
        if payload.get("node_count", 0) > 0:
            return (
                f"[{experiment_id}] density={density:g} run={run_index + 1}/{runs} "
                f"nodes={payload['node_count']}"
            )
        return None

    def notes(self, spec) -> List[str]:
        """Footnotes appended to the final result table."""
        return []


# ---------------------------------------------------------------------- advertised-set size


def _selections_for_sample(trial: Trial, selector_name: str, sampled: set) -> Sequence:
    """Selection results for the sampled nodes only (avoids running selectors network-wide).

    The trial's views -- and with them the per-metric compact-graph caches -- are shared
    across every selector of the sweep.
    """
    from repro.core.selection import make_selector

    selector = make_selector(selector_name)
    views = trial.views()
    return [selector.select(views[node], trial.metric) for node in sorted(sampled)]


def _ans_size_trial(trial: Trial) -> dict:
    """Per-trial measurement: advertised-set sizes per selector (runs in a worker under the
    parallel path, so it must return plain picklable data)."""
    if len(trial.network) == 0:
        return {"node_count": 0, "sizes": {}}
    sampled = set(trial.sample_nodes(trial.spec.node_sample, "ans-size-sample"))
    sizes: Dict[str, List[float]] = {}
    for selector_name in trial.spec.selectors:
        selections = _selections_for_sample(trial, selector_name, sampled)
        sizes[selector_name] = [float(len(selection.selected)) for selection in selections]
    return {"node_count": len(trial.network), "sizes": sizes}


@MEASURES.register("ans-size", description="mean advertised-set size per node (Figures 6/7)")
class AnsSizeMeasure(Measure):
    """Advertised-set size experiment (the paper's Figures 6 and 7).

    For every density and every protocol, measure the mean number of neighbors a node has
    to advertise in its TC messages: the MPR set for original QOLSR (which uses a single
    set for flooding and routing) and the QANS for topology filtering and FNBP (which keep
    the RFC 3626 MPR set separately for flooding).
    """

    name = "ans-size"

    def y_label(self, metric: Metric) -> str:
        return "advertised neighbors per node"

    def per_trial(self) -> Callable[[Trial], dict]:
        return _ans_size_trial

    def start(self, spec) -> Dict[str, Dict[float, List[float]]]:
        return {name: {density: [] for density in spec.densities} for name in spec.selectors}

    def consume(self, state, density: float, payload: dict) -> None:
        for selector_name, sizes in payload["sizes"].items():
            state[selector_name][density].extend(sizes)

    def density_points(self, state, spec, density: float) -> Dict[str, SeriesPoint]:
        return {
            name: SeriesPoint(density=density, summary=summarize(state[name][density]))
            for name in spec.selectors
        }

    def notes(self, spec) -> List[str]:
        notes = []
        if spec.node_sample is not None:
            notes.append(f"averaged over a sample of up to {spec.node_sample} nodes per topology")
        notes.append(f"{spec.runs} run(s) per density; seed={spec.seed}")
        return notes


# ---------------------------------------------------------------------- QoS overhead


def _overhead_trial(trial: Trial) -> dict:
    """Per-trial measurement: overheads and delivery flags per selector (worker-safe).

    The centralized optimum of each pair is computed once and shared by all selectors (it
    depends only on the topology), exactly as comparing "on the same topology with the same
    source and destination" requires.  Each selector's pairs are routed link-state style
    over its advertised topology (:meth:`Trial.advertised_topology`).
    """
    metric = trial.metric
    if len(trial.network) < 2:
        return {"node_count": len(trial.network), "per_selector": {}}
    pairs = trial.sample_pairs(trial.spec.pairs_per_run)
    routed_pairs = []
    for source, destination in pairs:
        optimal = optimal_route(trial.network, source, destination, metric)
        if not optimal.reachable or not metric.is_usable(optimal.value):
            continue
        routed_pairs.append((source, destination, optimal.value))

    per_selector: Dict[str, Tuple[List[float], List[float]]] = {}
    for selector_name in trial.spec.selectors:
        router = HopByHopRouter(trial.network, trial.advertised_topology(selector_name), metric)
        overheads: List[float] = []
        deliveries: List[float] = []
        for source, destination, optimal_value in routed_pairs:
            outcome = router.link_state_route(source, destination)
            deliveries.append(1.0 if outcome.delivered else 0.0)
            if outcome.delivered:
                overheads.append(qos_overhead(metric, outcome.value, optimal_value))
        per_selector[selector_name] = (overheads, deliveries)
    return {"node_count": len(trial.network), "per_selector": per_selector}


@MEASURES.register("overhead", description="QoS overhead vs the centralized optimum (Figures 8/9)")
class OverheadMeasure(Measure):
    """QoS-overhead experiment (the paper's Figures 8 and 9).

    For every density, generate topologies, pick random source/destination pairs and
    compare the QoS value achieved when routing hop-by-hop over each protocol's advertised
    topology against the optimal value achieved by a centralized QoS-weighted Dijkstra on
    the full graph:

    * bandwidth overhead  = (b* - b) / b*   (how much of the optimal bandwidth was given up),
    * delay overhead      = (d - d*) / d*   (how much extra delay was incurred),

    exactly the paper's definitions.  Pairs whose packet is not delivered (routing loop or
    no advertised route) are excluded from the overhead mean and reported separately
    through the per-point ``delivery_ratio`` extra -- the paper does not report failures,
    and with the default FNBP guard none are expected.
    """

    name = "overhead"

    def y_label(self, metric: Metric) -> str:
        return f"{metric.name} overhead"

    def per_trial(self) -> Callable[[Trial], dict]:
        return _overhead_trial

    def start(self, spec) -> Dict[str, Dict[str, Dict[float, List[float]]]]:
        return {
            "overheads": {name: {d: [] for d in spec.densities} for name in spec.selectors},
            "deliveries": {name: {d: [] for d in spec.densities} for name in spec.selectors},
        }

    def consume(self, state, density: float, payload: dict) -> None:
        for selector_name, (trial_overheads, trial_deliveries) in payload["per_selector"].items():
            state["overheads"][selector_name][density].extend(trial_overheads)
            state["deliveries"][selector_name][density].extend(trial_deliveries)

    def density_points(self, state, spec, density: float) -> Dict[str, SeriesPoint]:
        points = {}
        for name in spec.selectors:
            summary = summarize(state["overheads"][name][density])
            delivery = summarize(state["deliveries"][name][density])
            points[name] = SeriesPoint(
                density=density,
                summary=summary,
                extra={"delivery_ratio": delivery.mean, "attempts": float(delivery.count)},
            )
        return points

    def progress_line(self, experiment_id, runs, density, run_index, payload):
        if payload.get("node_count", 0) >= 2:
            return (
                f"[{experiment_id}] density={density:g} run={run_index + 1}/{runs} "
                f"nodes={payload['node_count']}"
            )
        return None

    def notes(self, spec) -> List[str]:
        return [
            f"{spec.runs} run(s) x {spec.pairs_per_run} pair(s) per density; seed={spec.seed}",
            "overhead averaged over delivered packets; see delivery_ratio per point",
        ]
