"""Declarative experiment specifications.

An :class:`ExperimentSpec` is a frozen dataclass that *fully describes* one density sweep:
what to measure (the ``measure`` registry name), under which QoS metric, with which
selection algorithms, over which topology model, at which densities, with how many runs,
how the per-topology node/pair sampling works, and from which root seed.  Every ingredient
is referred to by registry name (see :mod:`repro.registry`), so a spec is plain data --
loadable and dumpable as JSON -- and the generic engine
(:func:`repro.experiments.engine.run_experiment`) can execute any spec without
experiment-specific code.

The paper's Figures 6-9 are four registered spec presets (:mod:`repro.experiments.presets`);
``repro-sweep --spec my_sweep.json`` runs arbitrary specs from files.

The authoritative field-by-field schema reference is ``docs/spec.md`` -- *generated from
this dataclass* by ``docs/gen_spec_reference.py`` (re-run it after changing a field;
``tests/test_docs.py`` fails when the page is stale).  Summary (all fields optional except
``experiment_id``, ``title``, ``measure`` and ``metric``; ``field`` nests the deployment
area)::

    {
      "experiment_id": "custom-delay",
      "title": "Custom delay sweep",
      "measure": "overhead",             // MEASURES registry
      "metric": "delay",                 // METRICS registry
      "selectors": ["fnbp", "topology-filtering"],   // SELECTORS registry
      "topology": "poisson",             // TOPOLOGY_MODELS registry
      "densities": [6.0, 9.0, 12.0],
      "runs": 10,
      "pairs_per_run": 2,
      "node_sample": 20,                 // null = every node
      "field": {"width": 1000.0, "height": 1000.0, "radius": 100.0},
      "weight_low": 1.0,
      "weight_high": 10.0,
      "seed": 42,
      "timesteps": 0,                    // > 0 = dynamic sweep (mobility measures)
      "step_interval": 1.0,              // simulated time units per timestep
      "loss_rate": 0.0,                  // control-channel loss (protocol measures)
      "hello_interval": 2.0,             // simulated HELLO period (protocol measures)
      "tc_interval": 5.0                 // simulated TC period (protocol measures)
    }

Dynamic sweeps (the mobility subsystem, :mod:`repro.mobility`) set ``timesteps`` to the
number of steps each trial's topology is advanced through, ``step_interval`` to the
simulated time per step, a dynamic ``topology`` model (``rwp``, ``gauss-markov``,
``churn``) and a time-axis ``measure`` (``ans-churn``, ``tc-overhead``,
``route-stability``); ``examples/specs/mobility_churn_sweep.json`` is a committed example.
The protocol measures (``convergence-time``, ``advertised-staleness``, ``route-flaps``;
:mod:`repro.protocol.measures`) are dynamic sweeps that additionally read ``loss_rate``,
``hello_interval`` and ``tc_interval``; ``examples/specs/protocol_convergence_sweep.json``
is a committed example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.registry import MEASURES, METRICS, SELECTORS, TOPOLOGY_MODELS
from repro.topology.generators import PAPER_FIELD, FieldSpec
from repro.utils.validation import require_non_negative, require_positive

#: The selectors every figure compares, in the paper's legend order.
PAPER_SELECTORS: Tuple[str, ...] = ("qolsr-mpr2", "topology-filtering", "fnbp")


def _require_str(value, name: str) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")


def _require_int(value, name: str, minimum: Optional[int] = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _sequence(value, name: str) -> tuple:
    """A JSON list (or tuple) as a tuple; a bare string or object is a type error."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _field_spec(value) -> FieldSpec:
    """``field`` as a :class:`FieldSpec`, from one or from its JSON object form."""
    if isinstance(value, FieldSpec):
        return value
    if not isinstance(value, dict):
        raise TypeError(f"field must be a {{width, height, radius}} object, got {value!r}")
    try:
        return FieldSpec(**value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"field: {exc}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One density sweep, fully described as plain data.

    Field types and numeric constraints are validated at construction, each error naming
    its field; registry names are validated by :meth:`validate_names`, which
    :meth:`from_dict` / :meth:`from_json` / the engine call so that a typo fails fast
    with an error naming the field, the registry and its known entries.
    """

    experiment_id: str
    title: str
    measure: str
    metric: str
    selectors: Tuple[str, ...] = PAPER_SELECTORS
    topology: str = "poisson"
    densities: Tuple[float, ...] = ()
    runs: int = 100
    pairs_per_run: int = 1
    node_sample: Optional[int] = None
    field: FieldSpec = field(default_factory=lambda: PAPER_FIELD)
    weight_low: float = 1.0
    weight_high: float = 10.0
    seed: int = 42
    timesteps: int = 0
    step_interval: float = 1.0
    loss_rate: float = 0.0
    hello_interval: float = 2.0
    tc_interval: float = 5.0

    def __post_init__(self) -> None:
        for name in ("experiment_id", "title", "measure", "metric", "topology"):
            _require_str(getattr(self, name), name)
        if not self.experiment_id:
            raise ValueError("experiment_id must be non-empty")
        if not self.topology:
            raise ValueError("topology must be a registry name, got ''")
        selectors = _sequence(self.selectors, "selectors")
        for selector in selectors:
            _require_str(selector, "selectors")
        object.__setattr__(self, "selectors", selectors)
        densities = _sequence(self.densities, "densities")
        if not densities:
            raise ValueError("densities must list at least one density")
        for density in densities:
            require_positive(density, "densities")
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "field", _field_spec(self.field))
        _require_int(self.runs, "runs", minimum=1)
        _require_int(self.pairs_per_run, "pairs_per_run", minimum=1)
        if self.node_sample is not None:
            _require_int(self.node_sample, "node_sample", minimum=1)
        _require_int(self.seed, "seed")
        _require_int(self.timesteps, "timesteps", minimum=0)
        require_positive(self.weight_low, "weight_low")
        require_positive(self.weight_high, "weight_high")
        if self.weight_low > self.weight_high:
            raise ValueError(
                f"weights must satisfy 0 < weight_low <= weight_high, got weight_low="
                f"{self.weight_low!r} > weight_high={self.weight_high!r}"
            )
        require_positive(self.step_interval, "step_interval")
        require_non_negative(self.loss_rate, "loss_rate")
        if self.loss_rate >= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate!r}")
        require_positive(self.hello_interval, "hello_interval")
        require_positive(self.tc_interval, "tc_interval")

    # ------------------------------------------------------------------ validation

    def validate_names(self) -> "ExperimentSpec":
        """Check every registry name and return ``self``.

        Raises ``KeyError`` naming the offending field, its registry and the registry's
        known entries.
        """
        for name, registry, entries in (
            ("measure", MEASURES, (self.measure,)),
            ("metric", METRICS, (self.metric,)),
            ("topology", TOPOLOGY_MODELS, (self.topology,)),
            ("selectors", SELECTORS, self.selectors),
        ):
            for entry in entries:
                try:
                    registry.get(entry)
                except KeyError as exc:
                    raise KeyError(f"{name}: {exc.args[0]}") from None
        return self

    def with_overrides(self, **overrides) -> "ExperimentSpec":
        """A copy of the spec with the given fields replaced (validates like a fresh spec)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------ JSON round-trip

    def to_dict(self) -> dict:
        """Plain-dictionary form; ``ExperimentSpec.from_dict(spec.to_dict()) == spec``."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "measure": self.measure,
            "metric": self.metric,
            "selectors": list(self.selectors),
            "topology": self.topology,
            "densities": list(self.densities),
            "runs": self.runs,
            "pairs_per_run": self.pairs_per_run,
            "node_sample": self.node_sample,
            "field": {
                "width": self.field.width,
                "height": self.field.height,
                "radius": self.field.radius,
            },
            "weight_low": self.weight_low,
            "weight_high": self.weight_high,
            "seed": self.seed,
            "timesteps": self.timesteps,
            "step_interval": self.step_interval,
            "loss_rate": self.loss_rate,
            "hello_interval": self.hello_interval,
            "tc_interval": self.tc_interval,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        """Build a spec from a plain dictionary, rejecting unknown keys by name."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown ExperimentSpec field(s) {unknown}; known: {sorted(known)}")
        return cls(**payload).validate_names()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def dump(self, path: Union[str, Path]) -> Path:
        """Write the spec as JSON to ``path`` and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
