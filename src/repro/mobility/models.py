"""Mobility and churn models: deterministic, seeded trajectories for dynamic topologies.

The paper's evaluation is a set of static snapshots, but its argument about advertised-set
selection is really about *protocol overhead under change*: TC traffic scales with how often
the advertised sets churn, and that churn is driven by node movement and link-quality
fluctuation.  This module provides the trajectory side of the dynamic-topology subsystem
(:mod:`repro.mobility.dynamic` is the driver that applies trajectories to a
:class:`~repro.topology.network.Network`):

* :class:`RandomWaypointGenerator` -- the classic random-waypoint model: every node picks a
  uniform waypoint in the field, travels to it at a uniformly drawn speed, pauses, repeats.
* :class:`GaussMarkovGenerator` -- temporally correlated mobility: per-node speed and
  direction evolve as an AR(1) (Gauss-Markov) process with memory ``alpha``, reflecting off
  the field boundary, so trajectories are smooth rather than zig-zag.
* :class:`LinkChurnGenerator` -- link-level churn without movement: node positions are
  static, but each step a seeded per-link coin redraws link weights (fading re-measurement)
  and another takes links down for one step (outages).

All three register themselves in :data:`repro.registry.TOPOLOGY_MODELS` (``rwp``,
``gauss-markov``, ``churn``) with the *density axis interpreted as the exact node count*,
like ``fixed-count`` -- a Poisson-distributed count would confound mobility statistics with
population noise.  The time-zero snapshot returned by :meth:`generate` is exactly what
``fixed-count`` (without the largest-component restriction -- components change under
mobility) produces for the same seed, and a zero-velocity model reproduces that static
network at *every* step, which the property tests assert.

Determinism: every stochastic element is derived from the root seed through
:func:`repro.utils.seeding.spawn_rng` -- kinematic state sequentially from one per-run
generator, per-link churn coins as pure functions of ``(seed, edge, step)`` -- so a
trajectory is a deterministic function of ``(model parameters, seed, run_index)``,
bit-identical whether the trial runs serially or inside a ``REPRO_WORKERS`` worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.metrics.assignment import Edge, UniformWeightAssigner, WeightAssigner, canonical_edge
from repro.registry import TOPOLOGY_MODELS
from repro.topology.generators import FieldSpec, FixedCountNetworkGenerator
from repro.topology.network import Network, Position
from repro.topology.unit_disk import unit_disk_links
from repro.utils.ids import NodeId
from repro.utils.seeding import DerivedDraws, spawn_rng
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class WorldState:
    """One timestep's complete ground truth, as produced by a trajectory stepper.

    ``positions`` is every node's current location; ``down_links`` the canonical links
    currently suppressed by an outage (empty for pure-movement models);
    ``weight_overrides`` the *cumulative* table of re-measured link weights
    (``{edge: {metric_name: value}}``) and ``changed_weights`` the edges whose override
    changed at this step.  The step path of :class:`~repro.mobility.dynamic.DynamicTopology`
    needs the cumulative table, not just the delta: a link that comes back after an outage
    carries its last re-measured weight.  It also makes each state self-contained, so a
    network regenerated from one state equals the one the step path has arrived at.
    """

    positions: Dict[NodeId, Position]
    down_links: FrozenSet[Edge] = frozenset()
    weight_overrides: Dict[Edge, Dict[str, float]] = field(default_factory=dict)
    changed_weights: FrozenSet[Edge] = frozenset()


class TrajectoryStepper:
    """Sequential trajectory state of one run: ``step(dt)`` advances one timestep.

    Steppers are created by a generator's :meth:`dynamic` factory, hold per-run RNG state,
    and must be advanced strictly in step order (which is how the driver uses them); the
    state after N steps is a deterministic function of the construction arguments.
    """

    def step(self, dt: float) -> WorldState:  # pragma: no cover - interface
        raise NotImplementedError


# ---------------------------------------------------------------------- base generator


@dataclass
class _MobileGeneratorBase:
    """Shared shape of the registered dynamic models.

    ``generate(run_index)`` returns the static time-zero snapshot (so a dynamic model is a
    drop-in :data:`TOPOLOGY_MODELS` entry for any static sweep too); ``dynamic(run_index)``
    returns the live :class:`~repro.mobility.dynamic.DynamicTopology` driver.
    """

    field: FieldSpec = None  # type: ignore[assignment]
    node_count: int = 50
    seed: int = 0
    weight_assigners: Sequence[WeightAssigner] = ()

    #: Registry name, used in seed derivation so sibling models decorrelate.
    model_name = "mobile"

    def __post_init__(self) -> None:
        if self.field is None:
            self.field = FieldSpec()
        if self.node_count < 0:
            raise ValueError(f"node_count must be non-negative, got {self.node_count}")

    def generate(self, run_index: int = 0) -> Network:
        """The time-zero snapshot: exactly the ``fixed-count`` deployment for this seed.

        No largest-component restriction: under mobility the component structure changes
        from step to step, so the dynamic subsystem always keeps the full node set.
        """
        return FixedCountNetworkGenerator(
            field=self.field,
            node_count=self.node_count,
            seed=self.seed,
            weight_assigners=tuple(self.weight_assigners),
            restrict_to_largest_component=False,
        ).generate(run_index)

    def dynamic(self, run_index: int = 0, step_interval: float = 1.0, network: Optional[Network] = None):
        """A :class:`~repro.mobility.dynamic.DynamicTopology` for one run's trajectory.

        ``network`` optionally supplies the run's already-generated time-zero snapshot
        (``Trial.dynamic_topology`` passes ``trial.network`` so the deployment is not
        regenerated); the driver takes ownership and mutates it in place as it advances.
        Omitted, a fresh :meth:`generate` snapshot is used.
        """
        from repro.mobility.dynamic import DynamicTopology

        require_positive(step_interval, "step_interval")
        if network is None:
            network = self.generate(run_index)
        stepper = self._stepper(network, run_index)
        return DynamicTopology(
            network=network,
            stepper=stepper,
            radius=self.field.radius,
            weight_assigners=tuple(self.weight_assigners),
            step_interval=step_interval,
        )

    def _stepper(self, network: Network, run_index: int) -> TrajectoryStepper:
        raise NotImplementedError

    def _rng(self, run_index: int):
        return spawn_rng(self.seed, "mobility", self.model_name, self.node_count, run_index)


# ---------------------------------------------------------------------- random waypoint


class _RandomWaypointStepper(TrajectoryStepper):
    """Per-node waypoint kinematics; all draws come from one per-run generator in sorted
    node order, so the trajectory is reproducible bit-for-bit."""

    def __init__(self, positions, mobile_nodes, field, speed_low, speed_high, pause_high, rng):
        self._positions = dict(positions)
        self._field = field
        self._speed_low = speed_low
        self._speed_high = speed_high
        self._pause_high = pause_high
        self._rng = rng
        self._nodes = sorted(mobile_nodes)
        self._waypoints: Dict[NodeId, Position] = {}
        self._speeds: Dict[NodeId, float] = {}
        self._pauses: Dict[NodeId, float] = {}
        for node in self._nodes:
            self._assign_leg(node)

    def _assign_leg(self, node: NodeId) -> None:
        """Draw the next waypoint, travel speed and (on-arrival) pause for one node."""
        rng = self._rng
        self._waypoints[node] = (
            rng.uniform(0.0, self._field.width),
            rng.uniform(0.0, self._field.height),
        )
        self._speeds[node] = rng.uniform(self._speed_low, self._speed_high)
        self._pauses[node] = rng.uniform(0.0, self._pause_high) if self._pause_high > 0 else 0.0

    def step(self, dt: float) -> WorldState:
        for node in self._nodes:
            speed = self._speeds[node]
            if speed <= 0.0:
                continue  # a zero-speed leg never completes: the node is parked
            remaining = dt
            while remaining > 0.0:
                if self._pauses[node] > 0.0:
                    waited = min(self._pauses[node], remaining)
                    self._pauses[node] -= waited
                    remaining -= waited
                    continue
                x, y = self._positions[node]
                wx, wy = self._waypoints[node]
                distance = math.hypot(wx - x, wy - y)
                reach = self._speeds[node] * remaining
                if reach < distance:
                    fraction = reach / distance
                    self._positions[node] = (x + (wx - x) * fraction, y + (wy - y) * fraction)
                    break
                # Arrive at the waypoint, consume the travel time, draw the next leg
                # (the speed is positive here: zero-speed legs never reach this branch).
                self._positions[node] = (wx, wy)
                remaining -= distance / self._speeds[node]
                self._assign_leg(node)
                if self._speeds[node] <= 0.0:
                    break
        return WorldState(positions=dict(self._positions))


@dataclass
class RandomWaypointGenerator(_MobileGeneratorBase):
    """Random-waypoint mobility over a uniform time-zero deployment.

    ``speed_low`` / ``speed_high`` bound the uniformly drawn per-leg speed (field units per
    time unit); ``pause_high`` bounds the uniform pause on arrival.  With both speeds zero
    every node is parked forever and the model degenerates to the static ``fixed-count``
    deployment -- the anchor the property tests pin.

    ``mobile_fraction`` below 1 parks the complement: only a seeded per-run sample of
    ``round(fraction * n)`` nodes moves, modelling the common mixed scenario of a static
    mesh backbone serving mobile clients.  Localized movement is also where the
    incremental :class:`~repro.mobility.dynamic.DynamicTopology` step path pays most --
    changes cluster around the movers and every other view keeps its caches.
    """

    speed_low: float = 5.0
    speed_high: float = 15.0
    pause_high: float = 1.0
    mobile_fraction: float = 1.0

    model_name = "rwp"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.speed_low < 0 or self.speed_high < self.speed_low:
            raise ValueError("speeds must satisfy 0 <= speed_low <= speed_high")
        if self.pause_high < 0:
            raise ValueError("pause_high must be non-negative")
        if not 0.0 <= self.mobile_fraction <= 1.0:
            raise ValueError(f"mobile_fraction must be in [0, 1], got {self.mobile_fraction}")

    def _stepper(self, network: Network, run_index: int) -> TrajectoryStepper:
        rng = self._rng(run_index)
        positions = network.positions()
        if self.mobile_fraction >= 1.0:
            mobile = sorted(positions)  # no sampling draw: keeps full-mobility runs stable
        else:
            count = int(round(len(positions) * self.mobile_fraction))
            mobile = sorted(rng.sample(sorted(positions), count))
        return _RandomWaypointStepper(
            positions,
            mobile,
            self.field,
            self.speed_low,
            self.speed_high,
            self.pause_high,
            rng,
        )


# ---------------------------------------------------------------------- Gauss-Markov


class _GaussMarkovStepper(TrajectoryStepper):
    """AR(1) speed/direction evolution with boundary reflection."""

    def __init__(self, positions, field, alpha, mean_speed, speed_std, rng):
        self._positions = dict(positions)
        self._field = field
        self._alpha = alpha
        self._mean_speed = mean_speed
        self._speed_std = speed_std
        self._rng = rng
        self._nodes = sorted(self._positions)
        self._speeds: Dict[NodeId, float] = {}
        self._directions: Dict[NodeId, float] = {}
        for node in self._nodes:
            self._speeds[node] = max(0.0, rng.normalvariate(mean_speed, speed_std)) if speed_std > 0 else mean_speed
            self._directions[node] = rng.uniform(0.0, 2.0 * math.pi)

    def step(self, dt: float) -> WorldState:
        alpha = self._alpha
        drift = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        for node in self._nodes:
            rng = self._rng
            speed = (
                alpha * self._speeds[node]
                + (1.0 - alpha) * self._mean_speed
                + drift * (rng.normalvariate(0.0, self._speed_std) if self._speed_std > 0 else 0.0)
            )
            speed = max(0.0, speed)
            direction = self._directions[node] + drift * (
                rng.normalvariate(0.0, 0.5) if self._speed_std > 0 or self._mean_speed > 0 else 0.0
            )
            x, y = self._positions[node]
            x += speed * dt * math.cos(direction)
            y += speed * dt * math.sin(direction)
            # Reflect off the field boundary (position mirrored, direction flipped) so
            # nodes provably stay inside the deployment area.
            x, flipped_x = _reflect(x, self._field.width)
            y, flipped_y = _reflect(y, self._field.height)
            if flipped_x:
                direction = math.pi - direction
            if flipped_y:
                direction = -direction
            self._positions[node] = (x, y)
            self._speeds[node] = speed
            self._directions[node] = direction
        return WorldState(positions=dict(self._positions))


def _reflect(coordinate: float, limit: float) -> Tuple[float, bool]:
    """Mirror ``coordinate`` back into ``[0, limit]``; True when a reflection happened."""
    flipped = False
    while coordinate < 0.0 or coordinate > limit:
        if coordinate < 0.0:
            coordinate = -coordinate
        else:
            coordinate = 2.0 * limit - coordinate
        flipped = not flipped
    return coordinate, flipped


@dataclass
class GaussMarkovGenerator(_MobileGeneratorBase):
    """Gauss-Markov mobility: temporally correlated speed and direction.

    ``alpha`` is the memory parameter (1 = straight-line, 0 = memoryless Brownian-like);
    speed evolves around ``mean_speed`` with innovation scale ``speed_std`` and is clamped
    non-negative.  ``mean_speed=0, speed_std=0`` parks every node, reproducing the static
    deployment exactly.
    """

    alpha: float = 0.85
    mean_speed: float = 10.0
    speed_std: float = 4.0

    model_name = "gauss-markov"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mean_speed < 0 or self.speed_std < 0:
            raise ValueError("mean_speed and speed_std must be non-negative")

    def _stepper(self, network: Network, run_index: int) -> TrajectoryStepper:
        return _GaussMarkovStepper(
            network.positions(),
            self.field,
            self.alpha,
            self.mean_speed,
            self.speed_std,
            self._rng(run_index),
        )


# ---------------------------------------------------------------------- link churn


class _LinkChurnStepper(TrajectoryStepper):
    """Per-link fading coins, pure functions of ``(seed, edge, step)``.

    No sequential RNG state at all: whether a link is re-measured or down at step ``t``
    depends only on the derived seed, the canonical edge and ``t``, which makes the model
    trivially order-independent.  Each coin is ``spawn_rng(seed, label, ..., edge,
    step).random()`` (or ``.uniform`` for a weight), drawn by one :class:`DerivedDraws`.
    """

    def __init__(self, positions, base_links, reweight_probability, outage_probability, assigners, seed):
        self._positions = dict(positions)
        self._base_links: List[Edge] = sorted(canonical_edge(*edge) for edge in base_links)
        self._reweight_probability = reweight_probability
        self._outage_probability = outage_probability
        self._assigners = tuple(assigners)
        self._draws = DerivedDraws(seed)
        self._step = 0
        self._overrides: Dict[Edge, Dict[str, float]] = {}

    def step(self, dt: float) -> WorldState:
        self._step += 1
        step = self._step
        draws = self._draws
        changed: List[Edge] = []
        down: List[Edge] = []
        for edge in self._base_links:
            if (
                self._outage_probability > 0.0
                and draws.random(("churn-outage", edge), step) < self._outage_probability
            ):
                down.append(edge)
            if (
                self._reweight_probability > 0.0
                and draws.random(("churn-flip", edge), step) < self._reweight_probability
            ):
                override = self._overrides.setdefault(edge, {})
                for assigner in self._assigners:
                    if isinstance(assigner, UniformWeightAssigner):
                        name = assigner.metric.name
                        override[name] = draws.uniform(
                            ("churn-weight", name, edge), step, assigner.low, assigner.high
                        )
                if override:
                    changed.append(edge)
        return WorldState(
            positions=self._positions,
            down_links=frozenset(down),
            weight_overrides={edge: dict(values) for edge, values in self._overrides.items()},
            changed_weights=frozenset(changed),
        )


@dataclass
class LinkChurnGenerator(_MobileGeneratorBase):
    """Link churn and fading without node movement.

    Positions are the static ``fixed-count`` deployment; each step every link independently
    gets its uniform-assigner weights redrawn with probability ``reweight_probability``
    (fading re-measurement, persisting until the next redraw) and is suppressed for that
    step with probability ``outage_probability`` (deep fade).  Both probabilities zero
    reproduce the static network exactly.
    """

    reweight_probability: float = 0.15
    outage_probability: float = 0.05

    model_name = "churn"

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("reweight_probability", "outage_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {value}")

    def _stepper(self, network: Network, run_index: int) -> TrajectoryStepper:
        positions = network.positions()
        return _LinkChurnStepper(
            positions,
            unit_disk_links(positions, self.field.radius),
            self.reweight_probability,
            self.outage_probability,
            self.weight_assigners,
            # Decorrelate the churn coins from the deployment draws of the same root seed.
            spawn_rng(self.seed, "mobility", self.model_name, self.node_count, run_index).randrange(1 << 62),
        )


# ---------------------------------------------------------------------- registered models
#
# Like ``fixed-count``, the density axis is the exact node count: mobility statistics
# (churn, stability) would be confounded by Poisson population noise otherwise.


@TOPOLOGY_MODELS.register(
    "rwp",
    description="random-waypoint mobility over round(density) uniformly deployed nodes",
)
def rwp_model(field: FieldSpec, density: float, seed: int, weight_assigners: Sequence[WeightAssigner] = ()):
    """``density`` is the exact number of mobile nodes."""
    return RandomWaypointGenerator(
        field=field,
        node_count=int(round(density)),
        seed=seed,
        weight_assigners=tuple(weight_assigners),
    )


@TOPOLOGY_MODELS.register(
    "gauss-markov",
    description="Gauss-Markov correlated mobility over round(density) uniformly deployed nodes",
)
def gauss_markov_model(field: FieldSpec, density: float, seed: int, weight_assigners: Sequence[WeightAssigner] = ()):
    """``density`` is the exact number of mobile nodes."""
    return GaussMarkovGenerator(
        field=field,
        node_count=int(round(density)),
        seed=seed,
        weight_assigners=tuple(weight_assigners),
    )


@TOPOLOGY_MODELS.register(
    "churn",
    description="static round(density)-node deployment with per-step link fading/reweight churn",
)
def churn_model(field: FieldSpec, density: float, seed: int, weight_assigners: Sequence[WeightAssigner] = ()):
    """``density`` is the exact number of (static) nodes; links churn, positions do not."""
    return LinkChurnGenerator(
        field=field,
        node_count=int(round(density)),
        seed=seed,
        weight_assigners=tuple(weight_assigners),
    )
