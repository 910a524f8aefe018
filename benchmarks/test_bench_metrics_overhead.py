"""CI floor for telemetry overhead: the instrumented engine stays near the direct path.

``record.py`` tracks the full trajectory (``telemetry`` section of
``BENCH_selection.json``).  This test enforces only the regression floors the telemetry
layer promised when it landed: with metrics *off* the engine's ambient no-op hooks must
retain at least 0.98x of the legacy direct harness's throughput (<=2% overhead budget),
and with metrics *on* the full registry pipeline -- per-trial registries, snapshot
merges, ``on_metrics`` emission -- must retain at least 0.90x (<=10%).  Result equality
across all three paths is asserted before timing, so a telemetry change that perturbs
sweep output fails here too.

Samples are interleaved (direct/off/on per round, min over rounds) so slow-machine
drift hits every path alike.
"""

from __future__ import annotations

import time

from record import _legacy_ans_size_sweep, dispatch_bench_spec

from repro.experiments.engine import run_experiment
from repro.metrics import BandwidthMetric

ROUNDS = 5
OFF_FLOOR = 0.98
ON_FLOOR = 0.90


def _timings():
    """(direct_min_s, off_min_s, on_min_s) for the engine-dispatch benchmark sweep."""
    spec = dispatch_bench_spec()
    metric = BandwidthMetric()
    direct_result = _legacy_ans_size_sweep(spec, metric)
    off_result = run_experiment(spec, metrics=False)
    on_result = run_experiment(spec, metrics=True)
    assert direct_result.to_dict() == off_result.to_dict() == on_result.to_dict(), (
        "telemetry perturbed the sweep results"
    )

    direct_s, off_s, on_s = [], [], []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _legacy_ans_size_sweep(spec, metric)
        direct_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_experiment(spec, metrics=False)
        off_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_experiment(spec, metrics=True)
        on_s.append(time.perf_counter() - t0)
    return min(direct_s), min(off_s), min(on_s)


def test_telemetry_overhead_stays_inside_its_floors():
    direct, off, on = _timings()
    off_throughput = direct / off
    on_throughput = direct / on
    assert off_throughput >= OFF_FLOOR, (
        f"metrics-off engine fell below {OFF_FLOOR:.2f}x of the direct path: "
        f"direct {direct:.4f}s vs off {off:.4f}s ({off_throughput:.3f}x)"
    )
    assert on_throughput >= ON_FLOOR, (
        f"metrics-on engine fell below {ON_FLOOR:.2f}x of the direct path: "
        f"direct {direct:.4f}s vs on {on:.4f}s ({on_throughput:.3f}x)"
    )
