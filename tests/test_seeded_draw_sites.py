"""Every ``spawn_rng(...)`` call in the library builds a sequential generator.

:func:`~repro.utils.seeding.spawn_rng` builds and seeds a ``random.Random``: worth it for
a generator that draws a deployment, a trajectory or a sample, a waste for one number.
A per-label draw (one number per derived seed, like the loss, jitter, link-weight and
churn coins) goes through a :class:`~repro.utils.seeding.DerivedDraws` built once per
owner, which returns the same number for a fraction of the cost.  The scan below lists
every ``spawn_rng(...)`` call under ``src/repro`` (read off the modules' syntax trees,
so docstrings do not count) with the function it sits in; a call site missing from
``SEQUENTIAL`` fails the test.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (module, enclosing function) of each allowed call, and what its generator draws.
SEQUENTIAL = {
    ("topology/generators.py", "PoissonNetworkGenerator.generate"): "node count and positions",
    ("topology/generators.py", "FixedCountNetworkGenerator.generate"): "node positions",
    ("mobility/models.py", "_MobileGeneratorBase._rng"): "a run's kinematic state",
    ("mobility/models.py", "LinkChurnGenerator._stepper"): "the churn coins' seed",
    ("experiments/runner.py", "Trial.sample_nodes"): "a node sample",
    ("experiments/runner.py", "Trial.sample_pairs"): "source/destination pairs",
}


def _spawn_rng_calls(path: Path) -> list:
    """(module, enclosing function) of every ``spawn_rng(...)`` call in ``path``."""
    module = path.relative_to(PACKAGE).as_posix()
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "spawn_rng":
                    calls.append((module, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return calls


def test_spawn_rng_is_called_only_where_a_generator_draws_a_sequence():
    calls = [call for path in sorted(PACKAGE.rglob("*.py")) for call in _spawn_rng_calls(path)]
    assert sorted(calls) == sorted(SEQUENTIAL), (
        "a one-number draw belongs on a DerivedDraws built once per owner; "
        f"spawn_rng calls found: {sorted(calls)}"
    )
