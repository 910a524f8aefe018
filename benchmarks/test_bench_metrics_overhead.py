"""CI floor for telemetry overhead: the instrumented engine stays near the direct path.

``record.py`` tracks the full trajectory (``telemetry`` section of
``BENCH_selection.json``).  This test enforces only the regression floors the telemetry
layer promised when it landed: with metrics *off* the engine's ambient no-op hooks must
retain at least 0.98x of the legacy direct harness's throughput (<=2% overhead budget),
and with metrics *on* the full registry pipeline -- per-trial registries, snapshot
merges, ``on_metrics`` emission -- must retain at least 0.90x (<=10%).  Result equality
across all three paths is asserted before timing, so a telemetry change that perturbs
sweep output fails here too.

The statistic is the median over rounds of the *paired* per-round ratios (direct time
over off time, direct over on).  Every round runs all three paths back to back, and the
order of the three rotates through all six permutations, so slow-machine drift and
run-order effects hit every path alike and each ratio compares runs taken moments apart;
the median then discards the rounds a noisy neighbour disturbed.
"""

from __future__ import annotations

import itertools
import statistics
import time

from record import _legacy_ans_size_sweep, dispatch_bench_spec

from repro.experiments.engine import run_experiment
from repro.metrics import BandwidthMetric

#: Six rounds per run order (one sweep takes tens of milliseconds).
ORDERS = tuple(itertools.permutations(("direct", "off", "on")))
ROUNDS = 6 * len(ORDERS)
OFF_FLOOR = 0.98
ON_FLOOR = 0.90


def _median_paired_ratios():
    """(off, on) throughput vs the direct path: medians of the per-round paired ratios."""
    spec = dispatch_bench_spec()
    metric = BandwidthMetric()
    runs = {
        "direct": lambda: _legacy_ans_size_sweep(spec, metric),
        "off": lambda: run_experiment(spec, metrics=False),
        "on": lambda: run_experiment(spec, metrics=True),
    }
    results = {name: run() for name, run in runs.items()}  # doubles as the warm-up
    assert results["direct"].to_dict() == results["off"].to_dict() == results["on"].to_dict(), (
        "telemetry perturbed the sweep results"
    )

    off_ratios, on_ratios = [], []
    for round_index in range(ROUNDS):
        elapsed = {}
        for name in ORDERS[round_index % len(ORDERS)]:
            t0 = time.perf_counter()
            runs[name]()
            elapsed[name] = time.perf_counter() - t0
        off_ratios.append(elapsed["direct"] / elapsed["off"])
        on_ratios.append(elapsed["direct"] / elapsed["on"])
    return statistics.median(off_ratios), statistics.median(on_ratios)


def test_telemetry_overhead_stays_inside_its_floors():
    off_throughput, on_throughput = _median_paired_ratios()
    assert off_throughput >= OFF_FLOOR, (
        f"metrics-off engine fell below {OFF_FLOOR:.2f}x of the direct path: "
        f"median paired ratio {off_throughput:.3f}x over {ROUNDS} rounds"
    )
    assert on_throughput >= ON_FLOOR, (
        f"metrics-on engine fell below {ON_FLOOR:.2f}x of the direct path: "
        f"median paired ratio {on_throughput:.3f}x over {ROUNDS} rounds"
    )
