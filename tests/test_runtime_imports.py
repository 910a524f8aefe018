"""The library runs without networkx.

networkx is a test dependency only (the references in ``tests/nx_oracles.py``); the
library's one graph representation is the link map.  A subprocess blocks the package
(``sys.modules["networkx"] = None`` makes every ``import networkx`` raise ImportError),
imports every module under ``repro``, and runs smoke-size sweeps of the analytic
(``ans-size``, ``overhead``), mobility (``route-stability``) and protocol
(``convergence-time``) measures, one hop-by-hop route and one protocol data packet.

The protocol layer stands on its own too: no module of ``repro.olsr`` imports from
``repro.routing`` (the analytic router), read off the modules' import statements.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import importlib
    import json
    import pkgutil
    import sys

    sys.modules["networkx"] = None

    import repro
    from repro.core import FnbpSelector
    from repro.experiments.engine import run_experiment
    from repro.experiments.presets import figure_spec
    from repro.metrics import BandwidthMetric, UniformWeightAssigner
    from repro.protocol import ProtocolSimulator
    from repro.registry import PRESETS
    from repro.routing import HopByHopRouter, advertise
    from repro.topology import FieldSpec, GridNetworkGenerator

    modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in modules:
        importlib.import_module(name)

    dynamic = dict(
        runs=1, pairs_per_run=2, timesteps=2, field=FieldSpec(width=300.0, height=300.0, radius=100.0)
    )
    specs = [
        figure_spec(6, "smoke"),
        figure_spec(9, "smoke"),
        PRESETS.create("mobility-stability").with_overrides(densities=(20.0,), **dynamic),
        PRESETS.create("protocol-convergence").with_overrides(densities=(12.0,), **dynamic),
    ]
    sweeps = {}
    for spec in specs:
        series = run_experiment(spec, workers=1).to_dict()["series"]
        points = [point for points in series.values() for point in points]
        sweeps[spec.measure] = {
            "densities": sorted({point["density"] for point in points}) == list(spec.densities),
            "samples": sum(point["count"] for point in points),
        }

    metric = BandwidthMetric()
    assigner = UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=3)
    network = GridNetworkGenerator(
        rows=4, columns=4, spacing=80.0, radius=120.0, weight_assigners=(assigner,)
    ).generate()
    source, destination = network.nodes()[0], network.nodes()[-1]
    router = HopByHopRouter(network, advertise(network, FnbpSelector(), metric), metric)
    routed = router.link_state_route(source, destination).delivered
    simulation = ProtocolSimulator(network, metric, seed=1)
    simulation.run_until(12.0)
    sent = simulation.send_data(source, destination).delivered

    print(json.dumps({
        "modules": len(modules),
        "networkx": sys.modules["networkx"] is None,
        "sweeps": sweeps,
        "routed": routed,
        "sent": sent,
    }))
    """
)


def test_the_library_imports_and_runs_with_networkx_blocked():
    environment = {**os.environ, "PYTHONPATH": str(SRC)}
    environment.pop("REPRO_WORKERS", None)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["modules"] > 50
    assert report["networkx"]  # still blocked: nothing imported it
    assert sorted(report["sweeps"]) == ["ans-size", "convergence-time", "overhead", "route-stability"]
    for measure, sweep in report["sweeps"].items():
        assert sweep["densities"] and sweep["samples"] > 0, measure
    assert report["routed"] and report["sent"]


def test_the_protocol_package_imports_nothing_from_the_analytic_router():
    imported = {}
    for path in sorted((SRC / "repro" / "olsr").glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
        imported[path.name] = names
    assert "routing_table.py" in imported and "node.py" in imported
    assert "repro.localview.paths" in imported["routing_table.py"]  # the scan sees imports
    offending = {
        module: sorted(name for name in names if name.split(".")[:2] == ["repro", "routing"])
        for module, names in imported.items()
    }
    assert not any(offending.values()), offending
