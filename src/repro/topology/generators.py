"""Topology generators.

The paper's evaluation deploys nodes in a 1000 x 1000 square with a Poisson point process
whose intensity is chosen to hit a target mean degree δ, uses a communication radius of 100,
and draws link weights uniformly at random.  :class:`PoissonNetworkGenerator` reproduces that
setup; the grid and explicit generators support tests, examples and the paper's worked
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.metrics.assignment import WeightAssigner
from repro.registry import TOPOLOGY_MODELS
from repro.topology.network import Network, Position
from repro.topology.unit_disk import degree_to_intensity, unit_disk_links
from repro.utils.ids import NodeId
from repro.utils.seeding import spawn_rng
from repro.utils.validation import require_positive


@dataclass
class FieldSpec:
    """The deployment area and radio model used throughout the evaluation."""

    width: float = 1000.0
    height: float = 1000.0
    radius: float = 100.0

    def __post_init__(self) -> None:
        require_positive(self.width, "width")
        require_positive(self.height, "height")
        require_positive(self.radius, "radius")


#: The exact field the paper uses (1000 x 1000, R = 100).
PAPER_FIELD = FieldSpec()


@dataclass
class PoissonNetworkGenerator:
    """Poisson-point-process deployment at a target mean degree, as in the paper.

    The number of nodes is itself Poisson distributed (intensity ``δ / (π R²)`` times the
    field area); node positions are independent uniforms.  Link weights for each metric in
    ``weight_assigners`` are applied after the unit-disk edges are built.
    """

    field: FieldSpec = field(default_factory=FieldSpec)
    degree: float = 20.0
    seed: int = 0
    weight_assigners: Sequence[WeightAssigner] = ()
    restrict_to_largest_component: bool = False

    def generate(self, run_index: int = 0) -> Network:
        """Generate one topology.  Different ``run_index`` values give independent draws."""
        require_positive(self.degree, "degree")
        rng = spawn_rng(self.seed, "poisson-topology", self.degree, run_index)
        intensity = degree_to_intensity(self.degree, self.field.radius)
        expected_nodes = intensity * self.field.width * self.field.height
        count = _poisson_sample(rng, expected_nodes)
        positions: Dict[NodeId, Position] = {
            node: (rng.uniform(0.0, self.field.width), rng.uniform(0.0, self.field.height))
            for node in range(count)
        }
        network = _build_unit_disk_network(positions, self.field.radius, self.weight_assigners)
        if self.restrict_to_largest_component and len(network) > 0:
            network = network.largest_component()
        return network


@dataclass
class FixedCountNetworkGenerator:
    """Uniform deployment of an exact number of nodes (a binomial point process).

    Handy for tests and micro-benchmarks where the Poisson-distributed node count of the
    paper's process would make runtimes and assertions noisy.
    """

    field: FieldSpec = field(default_factory=FieldSpec)
    node_count: int = 100
    seed: int = 0
    weight_assigners: Sequence[WeightAssigner] = ()
    restrict_to_largest_component: bool = False

    def generate(self, run_index: int = 0) -> Network:
        if self.node_count < 0:
            raise ValueError(f"node_count must be non-negative, got {self.node_count}")
        rng = spawn_rng(self.seed, "fixed-topology", self.node_count, run_index)
        positions: Dict[NodeId, Position] = {
            node: (rng.uniform(0.0, self.field.width), rng.uniform(0.0, self.field.height))
            for node in range(self.node_count)
        }
        network = _build_unit_disk_network(positions, self.field.radius, self.weight_assigners)
        if self.restrict_to_largest_component and len(network) > 0:
            network = network.largest_component()
        return network


@dataclass
class GridNetworkGenerator:
    """A regular grid of nodes with the given spacing.

    Deterministic topology used by unit tests (known neighborhoods) and by the quickstart
    example; with spacing below the radius it yields a connected, predictable network.
    """

    rows: int = 5
    columns: int = 5
    spacing: float = 80.0
    radius: float = 100.0
    weight_assigners: Sequence[WeightAssigner] = ()

    def generate(self, run_index: int = 0) -> Network:
        if self.rows <= 0 or self.columns <= 0:
            raise ValueError("grid dimensions must be positive")
        require_positive(self.spacing, "spacing")
        positions: Dict[NodeId, Position] = {}
        node = 0
        for row in range(self.rows):
            for column in range(self.columns):
                positions[node] = (column * self.spacing, row * self.spacing)
                node += 1
        return _build_unit_disk_network(positions, self.radius, self.weight_assigners)


def network_from_positions(
    positions: Mapping[NodeId, Position],
    radius: float,
    weight_assigners: Sequence[WeightAssigner] = (),
) -> Network:
    """Build a unit-disk network from explicit node positions."""
    return _build_unit_disk_network(dict(positions), radius, weight_assigners)


def _build_unit_disk_network(
    positions: Dict[NodeId, Position],
    radius: float,
    weight_assigners: Sequence[WeightAssigner],
) -> Network:
    network = Network()
    for node, position in positions.items():
        network.add_node(node, position)
    for u, v in unit_disk_links(positions, radius):
        network.add_link(u, v)
    for assigner in weight_assigners:
        network.apply_weight_assigner(assigner)
    return network


def _poisson_sample(rng, mean: float) -> int:
    """Draw from a Poisson distribution with the given mean.

    Uses Knuth's product-of-uniforms method for small means and a normal approximation for
    large ones (the evaluation's densest setting has a mean of ~1100 nodes, far inside the
    regime where the approximation error is negligible compared to run-to-run variance).
    """
    if mean < 0:
        raise ValueError(f"the mean of a Poisson distribution must be non-negative, got {mean}")
    if mean == 0:
        return 0
    if mean > 50:
        return max(0, int(round(rng.normalvariate(mean, mean ** 0.5))))
    import math

    threshold = math.exp(-mean)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


# ---------------------------------------------------------------------- registered models
#
# The scenario API refers to topology models by registry name (the ``topology`` field of an
# ``ExperimentSpec``).  A model factory receives the sweep's field, the density value being
# swept, the root seed and the per-metric weight assigners, and returns a generator object
# whose ``generate(run_index)`` yields one topology per run.  How the density axis is
# interpreted is up to the model (mean degree, node count, grid side, ...).


@TOPOLOGY_MODELS.register(
    "poisson",
    description="Poisson point process at target mean degree, largest component (the paper's model)",
)
def poisson_model(field: FieldSpec, density: float, seed: int, weight_assigners: Sequence[WeightAssigner] = ()):
    """``density`` is the target mean node degree δ, as in the paper's evaluation."""
    return PoissonNetworkGenerator(
        field=field,
        degree=density,
        seed=seed,
        weight_assigners=tuple(weight_assigners),
        restrict_to_largest_component=True,
    )


@TOPOLOGY_MODELS.register(
    "fixed-count",
    description="uniform deployment of exactly round(density) nodes, largest component",
)
def fixed_count_model(field: FieldSpec, density: float, seed: int, weight_assigners: Sequence[WeightAssigner] = ()):
    """``density`` is the exact number of deployed nodes (binomial point process)."""
    return FixedCountNetworkGenerator(
        field=field,
        node_count=int(round(density)),
        seed=seed,
        weight_assigners=tuple(weight_assigners),
        restrict_to_largest_component=True,
    )


@TOPOLOGY_MODELS.register(
    "grid",
    description="deterministic round(density) x round(density) grid at 0.8 radius spacing",
)
def grid_model(field: FieldSpec, density: float, seed: int, weight_assigners: Sequence[WeightAssigner] = ()):
    """``density`` is the grid side; the seed only affects weight draws, not positions."""
    side = max(1, int(round(density)))
    return GridNetworkGenerator(
        rows=side,
        columns=side,
        spacing=field.radius * 0.8,
        radius=field.radius,
        weight_assigners=tuple(weight_assigners),
    )
