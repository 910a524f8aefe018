"""Time-axis measures of the event-driven protocol simulator.

The mobility measures (:mod:`repro.mobility.measures`) diff *analytically converged*
selections step to step -- they assume control traffic is instantaneous and lossless.
The three measures here drop that assumption: each trial runs one
:class:`~repro.protocol.simulator.ProtocolSimulator` per selector over the trial's live
:class:`~repro.mobility.dynamic.DynamicTopology`, with real jittered HELLO/TC traffic
over the seeded lossy channel, and observes at the end of every step window

* ``convergence-time`` -- for every step whose advance flipped at least one link (a
  *churn event*), the number of step windows until every node's table-implied advertised
  set first matches the analytic ground truth again (the per-node selections the
  incremental pipeline reports for the then-current topology).  The window of the event
  itself counts, so the minimum is 1; an event the trial's remaining windows never
  recover from carries no sample (``None``).
* ``advertised-staleness`` -- stale advertised link state: the number of links present
  in nodes' topology tables but absent from the live topology's analytic advertised
  link set, averaged over nodes.  This is the residue lost TCs and finite entry
  lifetimes leave behind.
* ``route-flaps`` -- the fraction of sampled (source, destination) pairs whose
  next hop (from the source's simulated tables) changed across the step, including
  appearing/disappearing routes.

All three ride the standard streaming pipeline unchanged (per-density pooled summary,
``extra["per_step_mean"]`` time curves, every sink/spec/CLI); the per-trial work is a
plain picklable function of the trial, so ``REPRO_WORKERS`` fan-out stays bit-identical
to a serial sweep -- every stochastic ingredient (jitter, loss, delay) derives from pure
``(spec.seed, density, run_index, selector)`` labels.

The zero-loss anchor: with ``loss_rate=0`` and HELLO/TC intervals aligned to the step
clock, the simulated advertised sets converge to exactly what the analytic
``tc-overhead``/advertised-topology pipeline reports (``tests/test_protocol_sim.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.metrics.assignment import canonical_edge
from repro.mobility.measures import TimeSeriesMeasure
from repro.obs import runtime as obs
from repro.protocol.loss import LossModel
from repro.protocol.simulator import ProtocolSimulator
from repro.registry import MEASURES
from repro.utils.seeding import derive_seed

#: Cold-start settling allowance before the first step window, in units of the slowest
#: emission period: two rounds to learn the two-hop neighborhood, one to propagate the
#: settled MPR-selector flags (flooding relays), one to flood TCs over them.
WARMUP_PERIODS = 4.0


def warmup_time(hello_interval: float, tc_interval: float) -> float:
    """Simulated time the protocol gets to converge on the time-zero topology."""
    return WARMUP_PERIODS * max(hello_interval, tc_interval)


def _convergence_series(
    link_churn: List[float], matched: List[bool]
) -> List[Optional[float]]:
    """Per-step convergence times: steps from each churn event until the first match.

    Index-aligned to timesteps: non-event steps and events the trial never saw converge
    (censored by the horizon) carry ``None`` and contribute no sample.
    """
    series: List[Optional[float]] = []
    for index in range(len(matched)):
        if link_churn[index] <= 0:
            series.append(None)
            continue
        value: Optional[float] = None
        for later in range(index, len(matched)):
            if matched[later]:
                value = float(later - index + 1)
                break
        series.append(value)
    return series


def _protocol_trial(trial) -> dict:
    """Per-trial protocol simulation feeding all three measures (worker-safe).

    One simulator per selector shares the trial's live dynamic network: each step first
    advances the topology once, then runs every simulator's event queue to the end of
    the step window and compares its table state against the analytic ground truth of
    the then-current topology (``trial.step_selections``, the same incremental pipeline
    the mobility measures use).
    """
    spec = trial.spec
    dynamic = trial.dynamic_topology()
    selectors = spec.selectors
    node_count = len(dynamic.network)
    if node_count == 0:
        return {"node_count": 0, "link_churn": [], "convergence": {}, "staleness": {}, "flaps": {}}
    pairs = trial.sample_pairs(spec.pairs_per_run)

    sims: Dict[str, ProtocolSimulator] = {}
    for name in selectors:
        sim = ProtocolSimulator(
            network=dynamic.network,
            metric=trial.metric,
            selector_name=name,
            seed=derive_seed(spec.seed, "protocol", trial.density, trial.run_index, name),
            hello_interval=spec.hello_interval,
            tc_interval=spec.tc_interval,
            loss_model=LossModel(
                seed=derive_seed(
                    spec.seed, "protocol-loss", trial.density, trial.run_index, name
                ),
                loss_rate=spec.loss_rate,
            ),
        )
        sim.attach(dynamic)
        sims[name] = sim

    warmup = warmup_time(spec.hello_interval, spec.tc_interval)
    with obs.span("protocol_sim"):
        for sim in sims.values():
            sim.run_until(warmup)

    previous_hops = {name: sims[name].next_hops(pairs) for name in selectors}
    matched: Dict[str, List[bool]] = {name: [] for name in selectors}
    staleness: Dict[str, List[float]] = {name: [] for name in selectors}
    flaps: Dict[str, List[Optional[float]]] = {name: [] for name in selectors}
    link_churn: List[float] = []
    for step in range(1, spec.timesteps + 1):
        delta = dynamic.advance()
        link_churn.append(float(delta.link_churn))
        horizon = warmup + step * spec.step_interval
        for name in selectors:
            sim = sims[name]
            with obs.span("protocol_sim"):
                sim.run_until(horizon)
            analytic = {
                node: frozenset(result.selected)
                for node, result in trial.step_selections(name).items()
            }
            matched[name].append(sim.ans_snapshot() == analytic)
            truth_edges = {
                canonical_edge(node, relay)
                for node, selected in analytic.items()
                for relay in selected
            }
            stale_total = sum(
                sum(1 for edge in links if edge not in truth_edges)
                for links in sim.advertised_link_sets().values()
            )
            staleness[name].append(stale_total / node_count)
            if pairs:
                hops = sim.next_hops(pairs)
                changed = sum(
                    1 for hop, previous in zip(hops, previous_hops[name]) if hop != previous
                )
                flaps[name].append(changed / len(pairs))
                previous_hops[name] = hops
            else:
                flaps[name].append(None)

    convergence = {
        name: _convergence_series(link_churn, matched[name]) for name in selectors
    }
    for sim in sims.values():
        sim.record_telemetry()
    return {
        "node_count": node_count,
        "link_churn": link_churn,
        "convergence": convergence,
        "staleness": staleness,
        "flaps": flaps,
        # Per-selector control-traffic truth (message counts + channel tx/delivery/loss),
        # aggregated by _ProtocolMeasure into every density point's extra["control"].
        "control": {name: sims[name].control_message_counts() for name in selectors},
    }


class _ProtocolMeasure(TimeSeriesMeasure):
    """Shared shape of the protocol measures: one simulated trial, three payload keys.

    Beyond the per-step series pipeline, every density point carries the summed
    per-selector control-traffic counters of its trials in ``extra["control"]``
    (hellos/TCs sent and forwarded, channel transmissions/deliveries/losses), so sinks
    see the protocol *cost* next to the quality series it buys.
    """

    def per_trial(self) -> Callable:
        return _protocol_trial

    def start(self, spec) -> dict:
        state = super().start(spec)
        state["control"] = {
            name: {d: {} for d in spec.densities} for name in spec.selectors
        }
        return state

    def consume(self, state, density: float, payload: dict) -> None:
        super().consume(state, density, payload)
        for name, counts in payload.get("control", {}).items():
            totals = state["control"][name][density]
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value

    def density_points(self, state, spec, density: float):
        points = super().density_points(state, spec, density)
        for name, point in points.items():
            point.extra["control"] = dict(state["control"][name][density])
        return points

    def notes(self, spec) -> List[str]:
        return [
            f"protocol sim: hello={spec.hello_interval:g}, tc={spec.tc_interval:g}, "
            f"loss_rate={spec.loss_rate:g} (seeded per-transmission draws)",
            *super().notes(spec),
        ]


@MEASURES.register(
    "convergence-time",
    description="steps from a churn event until simulated tables match ground truth (protocol sim)",
)
class ConvergenceTimeMeasure(_ProtocolMeasure):
    """Protocol re-convergence time after topology churn, per selector."""

    name = "convergence-time"
    payload_key = "convergence"

    def y_label(self, metric) -> str:
        return "steps until re-convergence after churn"


@MEASURES.register(
    "advertised-staleness",
    description="stale advertised links per node vs the live topology (protocol sim)",
)
class AdvertisedStalenessMeasure(_ProtocolMeasure):
    """Stale advertised link-state entries per node, per selector."""

    name = "advertised-staleness"
    payload_key = "staleness"

    def y_label(self, metric) -> str:
        return "stale advertised links per node"


@MEASURES.register(
    "route-flaps",
    description="fraction of sampled pairs whose next hop changed across a step (protocol sim)",
)
class RouteFlapsMeasure(_ProtocolMeasure):
    """Next-hop changes of sampled routes under lossy control traffic, per selector."""

    name = "route-flaps"
    payload_key = "flaps"

    def y_label(self, metric) -> str:
        return "fraction of pairs whose next hop flapped"

    def notes(self, spec) -> List[str]:
        return [
            f"{spec.pairs_per_run} sampled pair(s) per run; a flap = different next hop "
            f"at the source (including gained/lost routes)",
            *super().notes(spec),
        ]
