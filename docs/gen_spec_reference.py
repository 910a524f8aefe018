"""Generate ``docs/spec.md`` -- the ExperimentSpec schema reference -- from the dataclass.

The reference page is *generated, not written*: every field row (name, JSON type, default,
semantics) is derived from ``repro.experiments.spec.ExperimentSpec`` itself, the committed
example specs are embedded after being loaded through ``ExperimentSpec.load`` (so the page
can never show an example the code rejects), and the semantics prose lives in the
``SEMANTICS`` table below.  A field added to the dataclass without a ``SEMANTICS`` entry --
or a stale committed page -- fails the build::

    python docs/gen_spec_reference.py           # rewrite docs/spec.md
    python docs/gen_spec_reference.py --check   # exit 1 if docs/spec.md is stale (CI/tests)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.spec import ExperimentSpec  # noqa: E402
from repro.registry import ALL_REGISTRIES  # noqa: E402

OUTPUT = DOCS_DIR / "spec.md"

#: Per-field semantics, the only hand-maintained part of the page.  Every dataclass field
#: MUST have an entry here -- the generator refuses to run otherwise, which is the drift
#: guard that keeps this page honest when the spec grows a field.
SEMANTICS = {
    "experiment_id": (
        "Identifier used in progress lines, sink events and result keys. Required, "
        "non-empty."
    ),
    "title": "Human-readable title of the result table. Required.",
    "measure": (
        "What each trial measures and how trials aggregate — a `MEASURES` registry name. "
        "Static built-ins: `ans-size`, `overhead`; time-axis built-ins: `ans-churn`, "
        "`tc-overhead`, `route-stability`, plus the protocol-simulator measures "
        "`convergence-time`, `advertised-staleness`, `route-flaps` (all time-axis "
        "measures require `timesteps >= 1`)."
    ),
    "metric": (
        "QoS metric of the sweep — a `METRICS` registry name. The metric's name is also "
        "the edge attribute link weights are drawn into."
    ),
    "selectors": (
        "Selection algorithms to compare, in legend order — `SELECTORS` registry names. "
        "Default: the paper's legend (`qolsr-mpr2`, `topology-filtering`, `fnbp`)."
    ),
    "topology": (
        "Topology model trials are generated from — a `TOPOLOGY_MODELS` registry name. "
        "How `densities` is interpreted is the model's business: mean degree for "
        "`poisson`, node count for `fixed-count` and the mobility models, grid side for "
        "`grid`. Dynamic sweeps need a model exposing `dynamic(run_index, step_interval)` "
        "(`rwp`, `gauss-markov`, `churn`)."
    ),
    "densities": "The swept x axis, in sweep order. Non-empty, every entry `> 0`.",
    "runs": "Independent topologies per density (the paper uses 100).",
    "pairs_per_run": (
        "Random source/destination pairs per topology in routing measures (`overhead`, "
        "`route-stability`)."
    ),
    "node_sample": (
        "In `ans-size`, how many nodes per topology to average over; `null` = every node "
        "(the paper's setting)."
    ),
    "field": (
        "Deployment area and radio range, nested as "
        '`{"width": …, "height": …, "radius": …}`. Default: the paper\'s 1000 x 1000 '
        "field at radius 100."
    ),
    "weight_low": "Lower end of the uniform interval link weights are drawn from.",
    "weight_high": "Upper end of the uniform interval link weights are drawn from.",
    "seed": (
        "Root seed. Every topology, weight, sampling and trajectory draw derives from it "
        "deterministically; equal specs give bit-identical results, serial or parallel."
    ),
    "timesteps": (
        "Number of timesteps each trial's topology is advanced through. `0` = static "
        "sweep (every paper figure). Time-axis measures require `>= 1` and reject the "
        "spec before any trial runs (`Measure.validate_spec`)."
    ),
    "step_interval": (
        "Simulated time units per timestep (mobility displacement per step scales with "
        "it). Must be `> 0`; only meaningful with `timesteps >= 1`."
    ),
    "loss_rate": (
        "Per-transmission control-packet loss probability of the protocol simulator's "
        "lossy channel (`0 <= loss_rate < 1`). Only the protocol measures "
        "(`convergence-time`, `advertised-staleness`, `route-flaps`) consume it; "
        "analytic measures ignore it."
    ),
    "hello_interval": (
        "HELLO emission period of the protocol simulator, in simulated time units. "
        "Neighbor entries live three periods (RFC 3626 shape). Must be `> 0`; only the "
        "protocol measures consume it."
    ),
    "tc_interval": (
        "TC emission period of the protocol simulator, in simulated time units. "
        "Topology entries live three periods (RFC 3626 shape). Must be `> 0`; only the "
        "protocol measures consume it."
    ),
}

#: JSON types as they appear on the wire, keyed by the dataclass annotation string.
JSON_TYPES = {
    "str": "string",
    "int": "integer",
    "float": "number",
    "Optional[int]": "integer or null",
    "Tuple[str, ...]": "list of strings",
    "Tuple[float, ...]": "list of numbers",
    "FieldSpec": "object",
}


def _default_cell(spec_field) -> str:
    if spec_field.default is not MISSING:
        default = spec_field.default
    elif spec_field.default_factory is not MISSING:  # type: ignore[misc]
        default = spec_field.default_factory()  # type: ignore[misc]
    else:
        return "*required*"
    if hasattr(default, "width"):  # the nested FieldSpec
        return (
            f'`{{"width": {default.width:g}, "height": {default.height:g}, '
            f'"radius": {default.radius:g}}}`'
        )
    if isinstance(default, tuple):
        return "`[" + ", ".join(f'"{entry}"' if isinstance(entry, str) else f"{entry!r}" for entry in default) + "]`"
    if default is None:
        return "`null`"
    return f"`{default!r}`"


def generate() -> str:
    rows = []
    for spec_field in fields(ExperimentSpec):
        if spec_field.name not in SEMANTICS:
            raise SystemExit(
                f"ExperimentSpec.{spec_field.name} has no SEMANTICS entry in "
                f"docs/gen_spec_reference.py -- document it and regenerate"
            )
        annotation = str(spec_field.type)
        json_type = JSON_TYPES.get(annotation, annotation)
        rows.append(
            f"| `{spec_field.name}` | {json_type} | {_default_cell(spec_field)} | "
            f"{SEMANTICS[spec_field.name]} |"
        )
    documented = set(SEMANTICS) - {spec_field.name for spec_field in fields(ExperimentSpec)}
    if documented:
        raise SystemExit(f"SEMANTICS documents non-existent spec field(s): {sorted(documented)}")

    example_static = (REPO_ROOT / "examples/specs/custom_delay_sweep.json").read_text().strip()
    example_dynamic = (REPO_ROOT / "examples/specs/mobility_churn_sweep.json").read_text().strip()
    example_protocol = (
        REPO_ROOT / "examples/specs/protocol_convergence_sweep.json"
    ).read_text().strip()
    ExperimentSpec.from_json(example_static)  # the page may not show a spec the code rejects
    ExperimentSpec.from_json(example_dynamic)
    ExperimentSpec.from_json(example_protocol)

    spec_registries = ("measures", "metrics", "selectors", "topology-models")
    registry_lines = "\n".join(
        f"* `{section}` — {', '.join(f'`{name}`' for name in ALL_REGISTRIES[section].names())}"
        for section in spec_registries
    )

    return f"""<!-- GENERATED by docs/gen_spec_reference.py -- edit that script, not this file. -->

# ExperimentSpec reference

An `ExperimentSpec` (`src/repro/experiments/spec.py`) is a frozen dataclass that fully
describes one sweep as plain data. Every ingredient is referred to by registry name, so
a spec round-trips JSON losslessly and the generic engine
(`repro.experiments.engine.run_experiment`) can execute any spec without
experiment-specific code:

```python
from repro.experiments.engine import run_experiment
from repro.experiments.spec import ExperimentSpec

spec = ExperimentSpec.load("examples/specs/custom_delay_sweep.json")
result = run_experiment(spec)
```

or, from the shell, `repro-sweep --spec my_sweep.json` (any spec field can also be
overridden per flag — `repro-sweep --preset fig8 --densities 12,18 --runs 10`).

Field types and numeric constraints are validated at construction, each error naming
its field (integer fields accept only integers, never booleans; numbers must be finite);
registry names are validated by `validate_names()` (called by `from_dict` / `from_json`
and the engine), so a typo fails fast with an error naming the field, the registry and
its known entries. Unknown JSON keys are rejected by name.

## Fields

| Field | JSON type | Default | Semantics |
|-------|-----------|---------|-----------|
{chr(10).join(rows)}

## Registry names a spec can use

As of generation, the registries know (run `repro-sweep --list` for the live set):

{registry_lines}

## Example: a static sweep

The committed [custom_delay_sweep.json](../examples/specs/custom_delay_sweep.json)
(CI smoke-runs it):

```json
{example_static}
```

## Example: a dynamic sweep

A dynamic sweep sets `timesteps >= 1`, a dynamic `topology` model and a time-axis
`measure` — the committed
[mobility_churn_sweep.json](../examples/specs/mobility_churn_sweep.json):

```json
{example_dynamic}
```

## Example: a protocol-simulator sweep

The protocol measures (`convergence-time`, `advertised-staleness`, `route-flaps`) run an
event-driven OLSR simulator per trial — real jittered HELLO/TC traffic over a seeded
lossy channel — and consume `loss_rate`, `hello_interval` and `tc_interval`. The
committed
[protocol_convergence_sweep.json](../examples/specs/protocol_convergence_sweep.json)
(CI smoke-runs it; see [Protocol simulator](protocol.md)):

```json
{example_protocol}
```

All examples are loaded through `ExperimentSpec.from_json` at generation time, so this
page cannot show a spec the code would reject. See
[Extending the harness](extending.md) for registering new names, and
[Caches & invalidation](caches.md) for what the engine reuses while executing a spec.
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when docs/spec.md is stale instead of rewriting it",
    )
    args = parser.parse_args(argv)
    content = generate()
    if args.check:
        if not OUTPUT.exists() or OUTPUT.read_text(encoding="utf-8") != content:
            print(
                "docs/spec.md is stale: run `python docs/gen_spec_reference.py`",
                file=sys.stderr,
            )
            return 1
        print("docs/spec.md is up to date")
        return 0
    OUTPUT.write_text(content, encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
