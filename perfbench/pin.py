#!/usr/bin/env python3
"""Pin the benchmark's workloads: full specs from the presets, plus their pools' digests.

Run from the repository root::

    python3 perfbench/pin.py

It rewrites ``perfbench/workloads/<name>.json`` for every workload below (or for those
named on the command line): the preset's full ``ExperimentSpec`` with the narrowing
overrides applied, the reason for the workload, the sha256 digest of the canonical result
JSON of each of the ``POOL_SIZE`` pool inputs, and ``reference_sweep_s``, the median time
one sweep process took here, which sets how many sweeps fit in a run.  Every sweep runs
in a fresh process exactly as ``run.py`` runs it.  The specs are pinned so that a later
preset edit cannot silently change the benchmark; re-pin only in a change that redefines
the benchmark.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import replace

from run import POOL_SIZE, RUN_LIMIT_S, SRC, WORKLOADS, pool_spec, spawn

WORKLOAD_SOURCES = {
    "fig8-dense": {
        "preset": "fig8",
        "overrides": {"densities": (20.0,), "runs": 1},
        "why": (
            "few huge views (~640 nodes, degree 20) each selected once via select_all; "
            "topology filtering and its RNG reduction dominate, no protocol, olsr or "
            "mobility work"
        ),
    },
    "mobility-churn": {
        "preset": "mobility-churn",
        "overrides": {"runs": 1},
        "why": (
            "many small views re-selected every step through SelectionCache and "
            "DynamicTopology; rwp moves every node, so CSR rebuilds and re-selection recur"
        ),
    },
    "protocol-convergence": {
        "preset": "protocol-convergence",
        "overrides": {"densities": (40.0,), "runs": 1, "timesteps": 4},
        "why": (
            "per-node OLSR agents over a 10%-lossy channel, selecting from protocol tables "
            "through the scalar solvers; protocol, sim and olsr do most of the work"
        ),
    },
}


def pin(name: str, source: dict) -> dict:
    from repro.registry import PRESETS

    spec = replace(PRESETS.create(source["preset"]), **source["overrides"])
    workload = {
        "name": name,
        "why": source["why"],
        "preset": source["preset"],
        "overrides": dict(source["overrides"]),
        "default_seed": spec.seed,
        "spec": spec.to_dict(),
    }
    digests, durations = [], []
    for entry in range(POOL_SIZE):
        spawned = time.monotonic()
        sweep = spawn({"spec": pool_spec(workload, entry)}, RUN_LIMIT_S)
        durations.append(time.monotonic() - spawned)
        if sweep["problems"] or sweep["failed_trials"]:
            raise SystemExit(f"{name} input {entry}: {sweep['problems']} "
                             f"({sweep['failed_trials']} failed trials)")
        digests.append(sweep["digest"])
        print(f"{name} input {entry}: {durations[-1]:.2f} s {sweep['digest'][:12]}", flush=True)
    workload["reference_sweep_s"] = round(statistics.median(durations), 2)
    workload["digests"] = digests
    return workload


def main() -> None:
    sys.path.insert(0, str(SRC))
    WORKLOADS.mkdir(exist_ok=True)
    for name in sys.argv[1:] or WORKLOAD_SOURCES:
        workload = pin(name, WORKLOAD_SOURCES[name])
        path = WORKLOADS / f"{name}.json"
        path.write_text(json.dumps(workload, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
