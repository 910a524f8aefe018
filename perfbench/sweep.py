"""Run one benchmark sweep in a fresh process and print its measurements as JSON.

Invoked by ``run.py`` as ``python3 perfbench/sweep.py '<job json>'``; the job carries the
path of the harness sources, the full ``ExperimentSpec`` dict, the parent's
``time.monotonic()`` taken just before the spawn, and the ``trace`` flag.  The last stdout
line is one JSON object:

* ``setup_s`` -- spawn to ready: interpreter start, imports, registry and spec
  resolution (CLOCK_MONOTONIC is system-wide, so the parent's stamp is comparable);
* ``wall_s`` -- the ``run_experiment`` call, serial and with telemetry off;
* ``calibration_s`` -- :func:`calibrate` just before and just after that call;
* ``peak_rss_mb`` -- this process's peak resident set;
* ``digest`` -- sha256 of the canonical result JSON (sorted keys, no whitespace);
* ``trials`` / ``failed_trials`` -- trials attempted and failed (``on_error="skip"``);
* ``problems`` -- result invariants that do not hold, for any seed;
* ``layers`` -- with ``trace``, the per-layer metrics of :mod:`tracer`.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import resource
import sys
import time
from pathlib import Path

CALIBRATION_ITERATIONS = 300_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    The loop does the kind of work the harness does (dict updates, a bounded heap,
    frozenset intersections) but runs none of its code, so its time follows the speed
    the host gives this process and never a change to the program.  The collector is
    off, so a large heap left by a sweep adds no collection time.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        table, heap = {}, []
        for i in range(CALIBRATION_ITERATIONS):
            key = (i * 7919) % 4093
            table[key] = table.get(key, 0.0) + i * 0.5
            heapq.heappush(heap, (key, i))
            if len(heap) > 512:
                heapq.heappop(heap)
        sets = [frozenset(range(j, j + 64)) for j in range(0, 8192, 8)]
        sum(len(a & b) for a, b in zip(sets, sets[1:]))
        return time.perf_counter() - started
    finally:
        gc.enable()


def canonical_digest(result_dict: dict) -> str:
    text = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_problems(spec, result_dict: dict) -> list:
    """Invariants every healthy result of ``spec`` satisfies, whatever its seed.

    Each selector has one point per density, in order; a point with samples has a finite,
    non-negative mean (overheads, churn and convergence steps cannot be negative; the
    tolerance absorbs float summation order) and a point without samples has none; a
    delivery ratio lies in [0, 1].
    """
    problems = []
    if list(result_dict["series"]) != list(spec.selectors):
        problems.append(f"series {list(result_dict['series'])} != selectors {list(spec.selectors)}")
    for name, points in result_dict["series"].items():
        if [point["density"] for point in points] != list(spec.densities):
            problems.append(f"{name}: densities {[p['density'] for p in points]}")
        for point in points:
            where = f"{name}@{point['density']:g}"
            mean, count = point["mean"], point["count"]
            if count > 0 and not (math.isfinite(mean) and mean >= -1e-9):
                problems.append(f"{where}: mean {mean} over {count} samples")
            if count == 0 and not math.isnan(mean):
                problems.append(f"{where}: mean {mean} without samples")
            ratio = point.get("delivery_ratio")
            if ratio is not None and count > 0 and not 0.0 <= ratio <= 1.0:
                problems.append(f"{where}: delivery_ratio {ratio}")
    return problems


def failed_trials(result_dict: dict) -> int:
    """Trials the engine skipped, from each density's ``extra["failed_trials"]``."""
    per_density = {}
    for points in result_dict["series"].values():
        for point in points:
            per_density[point["density"]] = int(point.get("failed_trials", 0))
    return sum(per_density.values())


def run_job(job: dict) -> dict:
    """Set up, optionally trace, and run one sweep; return its measurements."""
    sys.path.insert(0, job["src"])
    from repro.experiments.engine import run_experiment
    from repro.experiments.spec import ExperimentSpec
    from repro.registry import MEASURES, METRICS

    spec = ExperimentSpec.from_dict(job["spec"])
    MEASURES.create(spec.measure)
    METRICS.create(spec.metric)
    setup_s = time.monotonic() - job["spawned_at"]

    tracer = None
    sinks = []
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        sinks.append(tracer.sink())
    calibration_s = [calibrate()]
    started = time.perf_counter()
    try:
        result = run_experiment(spec, sinks=sinks, on_error="skip")
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibration_s.append(calibrate())

    result_dict = result.to_dict()
    out = dict(
        setup_s=setup_s,
        wall_s=wall_s,
        calibration_s=calibration_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=canonical_digest(result_dict),
        trials=spec.runs * len(spec.densities),
        failed_trials=failed_trials(result_dict),
        problems=result_problems(spec, result_dict),
    )
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall_s)
        if job.get("trace_out"):
            tracer.save(Path(job["trace_out"]))
    return out


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
