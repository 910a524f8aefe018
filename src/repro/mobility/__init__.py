"""Mobility and churn subsystem: time-evolving topologies and dynamic sweeps.

Three layers, stacked:

* :mod:`repro.mobility.models` -- deterministic, seeded trajectory models (random
  waypoint, Gauss-Markov, link churn/fading), registered as ``TOPOLOGY_MODELS`` entries
  ``rwp`` / ``gauss-markov`` / ``churn``.
* :mod:`repro.mobility.dynamic` -- the :class:`DynamicTopology` driver that advances a
  network through timesteps by diffing link sets and weights, maintaining the per-node
  local views (and their compact-graph caches) incrementally.
* :mod:`repro.mobility.measures` -- the time-axis measure plugins (``ans-churn``,
  ``tc-overhead``, ``route-stability``) that run dynamic sweeps through the standard
  spec/engine/sink pipeline.
"""

from repro.mobility.dynamic import DynamicTopology, StepDelta
from repro.mobility.models import (
    GaussMarkovGenerator,
    LinkChurnGenerator,
    RandomWaypointGenerator,
    TrajectoryStepper,
    WorldState,
)

__all__ = [
    "DynamicTopology",
    "StepDelta",
    "RandomWaypointGenerator",
    "GaussMarkovGenerator",
    "LinkChurnGenerator",
    "TrajectoryStepper",
    "WorldState",
]
