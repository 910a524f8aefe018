"""Time-axis measure plugins: what dynamic-topology trials measure, per timestep.

Static sweeps ask "how large is the advertised set"; dynamic sweeps ask "how much *protocol
work* does keeping it up to date cost".  One dynamic trial generates a topology, advances it
through ``spec.timesteps`` steps of ``spec.step_interval`` time units with the spec's
mobility model (see :mod:`repro.mobility.models`), and refreshes every selector's
selections after each step on the incrementally maintained views of the
:class:`~repro.mobility.dynamic.DynamicTopology` driver -- incrementally too: a step gives
new views only to the owners its :attr:`~repro.mobility.dynamic.StepDelta.dirty` set
names, and the trial's :class:`~repro.core.selection.SelectionCache` re-runs a selector
only at owners whose view is new, reusing the previous step's results everywhere else
(see ``docs/caches.md``).  Three measure kinds fold the
per-step observations into the standard streaming pipeline (they register in
:data:`repro.registry.MEASURES` and work with every sink, spec and CLI):

* ``ans-churn`` -- advertised-topology churn: the number of advertised links that appear or
  disappear per step, per selector.  This is the link-state database turbulence a protocol
  imposes on the whole network.
* ``tc-overhead`` -- triggered TC re-advertisement overhead: advertised entries re-flooded
  per node per step, counting each node whose advertised set changed as re-flooding its
  whole (new) set, which is what RFC 3626's triggered TC updates do.
* ``route-stability`` -- the fraction of sampled (source, destination) routes whose first
  hop survives a step (same first hop, still delivered), the user-visible face of churn.

Every per-density :class:`SeriesPoint` aggregates over all steps and runs and carries the
per-timestep mean series in its ``extra["per_step_mean"]``, so incremental sinks stream
per-timestep curves, not just sweep-level summaries; the raw per-step series of every trial
rides in the ``trial`` payloads.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.experiments.measures import Measure
from repro.experiments.results import SeriesPoint
from repro.experiments.stats import summarize
from repro.metrics.assignment import canonical_edge
from repro.registry import MEASURES
from repro.routing.advertised import AdvertisedTopologyBuilder
from repro.routing.hop_by_hop import HopByHopRouter


def _selector_state(trial, selector_name: str):
    """One selector's per-node advertised sets and advertised link set, on current views.

    Selections come from the trial's
    :class:`~repro.core.selection.SelectionCache` (:meth:`Trial.step_selections`): only the
    owners whose view the steps since this selector's last run replaced re-run the
    selector, everyone else reuses the previous step's result -- bit-identical to
    re-running everywhere, which is what caps per-step cost at the size of the step
    instead of the size of the network.
    """
    results = trial.step_selections(selector_name)
    ans_sets = {node: result.selected for node, result in results.items()}
    edges = {
        canonical_edge(node, relay) for node, selected in ans_sets.items() for relay in selected
    }
    return ans_sets, edges


def _selection_churn_trial(trial) -> dict:
    """Per-trial measurement of ``ans-churn`` and ``tc-overhead`` (worker-safe).

    Runs every selector once on the time-zero topology (the baseline nothing is charged
    for) and once after each of the ``timesteps`` steps, diffing advertised links and
    per-node advertised sets between consecutive steps.
    """
    dynamic = trial.dynamic_topology()
    selectors = trial.spec.selectors
    node_count = len(dynamic.network)
    if node_count == 0:
        return {"node_count": 0, "link_churn": [], "churn": {}, "tc": {}}

    previous_sets: Dict[str, dict] = {}
    previous_edges: Dict[str, set] = {}
    for name in selectors:
        previous_sets[name], previous_edges[name] = _selector_state(trial, name)

    churn: Dict[str, List[float]] = {name: [] for name in selectors}
    tc: Dict[str, List[float]] = {name: [] for name in selectors}
    link_churn: List[float] = []
    for _ in range(trial.spec.timesteps):
        delta = dynamic.advance()
        link_churn.append(float(delta.link_churn))
        for name in selectors:
            ans_sets, edges = _selector_state(trial, name)
            churn[name].append(float(len(edges ^ previous_edges[name])))
            re_advertised = sum(
                len(selected)
                for node, selected in ans_sets.items()
                if selected != previous_sets[name].get(node)
            )
            tc[name].append(re_advertised / node_count)
            previous_sets[name], previous_edges[name] = ans_sets, edges
    return {"node_count": node_count, "link_churn": link_churn, "churn": churn, "tc": tc}


def _route_stability_trial(trial) -> dict:
    """Per-trial measurement of ``route-stability`` (worker-safe).

    For every selector and every sampled pair, route hop-by-hop link-state style over the
    advertised topology of each step, built from that step's selections, and record
    whether the first hop survived the step: still delivered, same first hop.  Link-state
    routes read the network's current weights, so a step's re-measured links need no
    refresh.  Pairs with no route before a step carry no survival sample for it.
    """
    dynamic = trial.dynamic_topology()
    selectors = trial.spec.selectors
    metric = trial.metric
    node_count = len(dynamic.network)
    pairs = trial.sample_pairs(trial.spec.pairs_per_run)
    if node_count < 2 or not pairs:
        return {"node_count": node_count, "stability": {}, "delivered": {}}

    builder = AdvertisedTopologyBuilder(dynamic.network)

    def first_hops(name: str) -> List[Optional[object]]:
        selector_sets, _ = _selector_state(trial, name)
        router = HopByHopRouter(dynamic.network, builder.build(selector_sets), metric)
        hops: List[Optional[object]] = []
        for source, destination in pairs:
            outcome = router.link_state_route(source, destination)
            hops.append(outcome.path[1] if outcome.delivered and len(outcome.path) > 1 else None)
        return hops

    previous = {name: first_hops(name) for name in selectors}
    stability: Dict[str, List[Optional[float]]] = {name: [] for name in selectors}
    delivered: Dict[str, List[float]] = {name: [] for name in selectors}
    for _ in range(trial.spec.timesteps):
        dynamic.advance()
        for name in selectors:
            hops = first_hops(name)
            survived = [
                1.0 if hop == previous_hop else 0.0
                for hop, previous_hop in zip(hops, previous[name])
                if previous_hop is not None
            ]
            # One entry per timestep, always: a step with no routes to survive (every pair
            # undelivered before it) carries None so the per-step series stay aligned.
            stability[name].append(sum(survived) / len(survived) if survived else None)
            delivered[name].append(
                sum(1.0 for hop in hops if hop is not None) / len(hops)
            )
            previous[name] = hops
    return {"node_count": node_count, "stability": stability, "delivered": delivered}


class _TimeSeriesMeasure(Measure):
    """Shared aggregation of per-step series: pooled summary + per-timestep mean curve.

    ``payload_key`` selects the per-selector step series of the trial payload.  The pooled
    summary (over all steps and runs of a density) is the point's headline statistic; the
    per-step cross-run means ride in ``extra["per_step_mean"]`` so sinks stream the full
    time axis.
    """

    payload_key = "values"

    def validate_spec(self, spec) -> None:
        if getattr(spec, "timesteps", 0) < 1:
            raise ValueError(
                f"measure {self.name!r} needs a dynamic sweep: set timesteps >= 1 "
                f"(and a dynamic topology model such as rwp, gauss-markov or churn)"
            )
        # Probe the topology model for a trajectory factory so a static model fails here,
        # before any trial runs (not as a worker traceback after topology generation).
        from repro.registry import TOPOLOGY_MODELS

        probe = TOPOLOGY_MODELS.create(
            spec.topology, field=spec.field, density=spec.densities[0], seed=spec.seed
        )
        if not hasattr(probe, "dynamic"):
            raise ValueError(
                f"measure {self.name!r} needs a dynamic topology model, but "
                f"{spec.topology!r} is static; use rwp, gauss-markov, churn or another "
                f"model exposing dynamic(run_index, step_interval)"
            )

    def start(self, spec) -> dict:
        return {
            "values": {name: {d: [] for d in spec.densities} for name in spec.selectors},
            "per_step": {name: {d: {} for d in spec.densities} for name in spec.selectors},
        }

    def consume(self, state, density: float, payload: dict) -> None:
        # Step series are index-aligned to timesteps; a None entry means the trial had no
        # sample for that step (e.g. no surviving routes to judge) and contributes nothing.
        for name, steps in payload.get(self.payload_key, {}).items():
            buckets = state["per_step"][name][density]
            for index, value in enumerate(steps):
                if value is None:
                    continue
                state["values"][name][density].append(value)
                buckets.setdefault(index, []).append(value)

    def density_points(self, state, spec, density: float) -> Dict[str, SeriesPoint]:
        points = {}
        for name in spec.selectors:
            buckets = state["per_step"][name][density]
            per_step_mean = [
                sum(buckets[index]) / len(buckets[index]) if buckets.get(index) else None
                for index in range(spec.timesteps)
            ]
            points[name] = SeriesPoint(
                density=density,
                summary=summarize(state["values"][name][density]),
                extra={"per_step_mean": per_step_mean},
            )
        return points

    def notes(self, spec) -> List[str]:
        return [
            f"{spec.timesteps} timestep(s) of {spec.step_interval:g} time unit(s) per run",
            f"{spec.runs} run(s) per density; seed={spec.seed}",
        ]


#: Public name of the per-step series aggregation base: the protocol measures
#: (:mod:`repro.protocol.measures`) ride the same pooled-summary + per-step-mean pipeline.
TimeSeriesMeasure = _TimeSeriesMeasure


@MEASURES.register(
    "ans-churn", description="advertised links appearing/disappearing per step (dynamic sweeps)"
)
class AnsChurnMeasure(_TimeSeriesMeasure):
    """Advertised-topology churn per step, per selector."""

    name = "ans-churn"
    payload_key = "churn"

    def y_label(self, metric) -> str:
        return "advertised links changed per step"

    def per_trial(self) -> Callable:
        return _selection_churn_trial


@MEASURES.register(
    "tc-overhead", description="advertised entries re-flooded per node per step (dynamic sweeps)"
)
class TcOverheadMeasure(_TimeSeriesMeasure):
    """Triggered TC re-advertisement overhead per step, per selector."""

    name = "tc-overhead"
    payload_key = "tc"

    def y_label(self, metric) -> str:
        return "re-advertised entries per node per step"

    def per_trial(self) -> Callable:
        return _selection_churn_trial


@MEASURES.register(
    "route-stability", description="fraction of first hops surviving a step (dynamic sweeps)"
)
class RouteStabilityMeasure(_TimeSeriesMeasure):
    """First-hop survival of sampled routes across steps, per selector."""

    name = "route-stability"
    payload_key = "stability"

    def y_label(self, metric) -> str:
        return "fraction of first hops surviving a step"

    def per_trial(self) -> Callable:
        return _route_stability_trial

    def notes(self, spec) -> List[str]:
        return [
            f"{spec.pairs_per_run} sampled pair(s) per run; survival = same first hop, still delivered",
            *super().notes(spec),
        ]
