"""The paper's Figures 6-9 as registered spec presets.

Each preset is a zero-argument factory returning the *paper-profile*
:class:`~repro.experiments.spec.ExperimentSpec` of one evaluation figure (100 runs at the
paper's densities, Section IV.A).  :func:`figure_spec` narrows a figure preset to a
profile by applying that profile's per-metric overrides (:data:`PROFILES`); everything
else about the figure -- its id, title, measure kind and metric -- lives here, so nothing
dispatches on figure numbers or hard-codes ``"bandwidth" if number in (6, 8)``.

======  =========  ==========  ===============================================
Preset  Measure    Metric      What it shows
======  =========  ==========  ===============================================
fig6    ans-size   bandwidth   advertised-set size per node vs density
fig7    ans-size   delay       advertised-set size per node vs density
fig8    overhead   bandwidth   bandwidth overhead vs the centralized optimum
fig9    overhead   delay       delay overhead vs the centralized optimum
======  =========  ==========  ===============================================
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.spec import ExperimentSpec
from repro.registry import PRESETS
from repro.topology.generators import FieldSpec

#: Densities of the bandwidth-metric figures (Figures 6 and 8).
BANDWIDTH_DENSITIES: Tuple[float, ...] = (10, 15, 20, 25, 30, 35)

#: Densities of the delay-metric figures (Figures 7 and 9).
DELAY_DENSITIES: Tuple[float, ...] = (5, 10, 15, 20, 25, 30)


@PRESETS.register("fig6", description="Figure 6: advertised-set size vs density, bandwidth")
def fig6_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="fig6",
        title="Size of the set advertised in TC messages (bandwidth)",
        measure="ans-size",
        metric="bandwidth",
        densities=BANDWIDTH_DENSITIES,
    )


@PRESETS.register("fig7", description="Figure 7: advertised-set size vs density, delay")
def fig7_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="fig7",
        title="Size of the set advertised in TC messages (delay)",
        measure="ans-size",
        metric="delay",
        densities=DELAY_DENSITIES,
    )


@PRESETS.register("fig8", description="Figure 8: bandwidth overhead vs the centralized optimum")
def fig8_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="fig8",
        title="Bandwidth overhead vs centralized optimum",
        measure="overhead",
        metric="bandwidth",
        densities=BANDWIDTH_DENSITIES,
    )


@PRESETS.register("fig9", description="Figure 9: delay overhead vs the centralized optimum")
def fig9_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="fig9",
        title="Delay overhead vs centralized optimum",
        measure="overhead",
        metric="delay",
        densities=DELAY_DENSITIES,
    )


@PRESETS.register(
    "mobility-churn",
    description="ANS churn per step under random-waypoint mobility (dynamic sweep)",
)
def mobility_churn_spec() -> ExperimentSpec:
    """Beyond the paper's static snapshots: how turbulent is each protocol's advertised
    topology when nodes move?  Densities are node counts (the mobility models deploy an
    exact number of nodes so churn statistics are not confounded by population noise); on
    the 600x600 field they span mean degrees ~5-10, the lower half of the paper's range."""
    return ExperimentSpec(
        experiment_id="mobility-churn",
        title="Advertised-topology churn under random-waypoint mobility",
        measure="ans-churn",
        metric="bandwidth",
        topology="rwp",
        densities=(60.0, 90.0, 120.0),
        runs=20,
        timesteps=10,
        step_interval=1.0,
        field=FieldSpec(width=600.0, height=600.0, radius=100.0),
    )


@PRESETS.register(
    "mobility-stability",
    description="first-hop route stability per step under random-waypoint mobility (dynamic sweep)",
)
def mobility_stability_spec() -> ExperimentSpec:
    """The user-visible face of churn: what fraction of routes survive one timestep."""
    return ExperimentSpec(
        experiment_id="mobility-stability",
        title="First-hop route stability under random-waypoint mobility",
        measure="route-stability",
        metric="bandwidth",
        topology="rwp",
        densities=(60.0, 90.0, 120.0),
        runs=20,
        pairs_per_run=5,
        timesteps=10,
        step_interval=1.0,
        field=FieldSpec(width=600.0, height=600.0, radius=100.0),
    )


@PRESETS.register(
    "protocol-convergence",
    description="protocol re-convergence time after churn under lossy HELLO/TC traffic (protocol sim)",
)
def protocol_convergence_spec() -> ExperimentSpec:
    """Event-driven counterpart of the analytic overhead comparison: per-node OLSR agents
    exchange real HELLO/TC traffic over a 10%-lossy channel while links churn, and the
    measure reports how many step windows each protocol needs to re-converge on ground
    truth.  Each step window spans two emission rounds so two-hop weight propagation
    (one HELLO hop of lag per hop) fits inside one window; densities are node counts,
    as in the mobility presets."""
    return ExperimentSpec(
        experiment_id="protocol-convergence",
        title="Protocol re-convergence after churn under lossy control traffic",
        measure="convergence-time",
        metric="bandwidth",
        topology="churn",
        densities=(40.0, 60.0),
        runs=10,
        pairs_per_run=5,
        timesteps=8,
        step_interval=2.0,
        hello_interval=1.0,
        tc_interval=1.0,
        loss_rate=0.1,
        field=FieldSpec(width=600.0, height=600.0, radius=100.0),
    )


#: The figure numbers of the paper's evaluation section, keyed to their preset names.
FIGURE_PRESETS: Dict[int, str] = {6: "fig6", 7: "fig7", 8: "fig8", 9: "fig9"}

_QUICK = {"runs": 3, "pairs_per_run": 3, "node_sample": 60}
_SMOKE = {
    "runs": 1,
    "pairs_per_run": 2,
    "node_sample": 20,
    "field": FieldSpec(width=400.0, height=400.0, radius=100.0),
}

#: Spec overrides of each parameter profile, per metric family of a figure preset.
#: ``paper`` is the preset itself (100 runs at the paper's densities, every node);
#: ``quick`` keeps the figure shapes but trims runs, densities and sampled nodes so the
#: benchmark suite finishes in minutes; ``smoke`` is a seconds-long sanity pass.
PROFILES: Dict[str, Dict[str, dict]] = {
    "paper": {"bandwidth": {}, "delay": {}},
    "quick": {
        "bandwidth": {**_QUICK, "densities": (10.0, 15.0, 20.0)},
        "delay": {**_QUICK, "densities": (5.0, 10.0, 15.0)},
    },
    "smoke": {
        "bandwidth": {**_SMOKE, "densities": (8.0,)},
        "delay": {**_SMOKE, "densities": (6.0,)},
    },
}


def figure_spec(number: int, profile: str = "paper") -> ExperimentSpec:
    """The spec of one figure by number (6, 7, 8 or 9), narrowed to ``profile``."""
    try:
        preset_name = FIGURE_PRESETS[number]
    except KeyError as exc:
        raise KeyError(
            f"the paper has no result figure {number}; choose one of {sorted(FIGURE_PRESETS)}"
        ) from exc
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; known: {sorted(PROFILES)}")
    preset = PRESETS.create(preset_name)
    return preset.with_overrides(**PROFILES[profile][preset.metric])
