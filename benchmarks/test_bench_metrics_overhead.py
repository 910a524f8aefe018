"""CI floor for telemetry overhead: the instrumented engine stays near the direct path.

This test enforces the regression floors the telemetry layer promised when it landed:
with metrics *off* the engine's ambient no-op hooks must retain at least 0.98x of the
legacy direct harness's throughput (<=2% overhead budget), and with metrics *on* the
full registry pipeline -- per-trial registries, snapshot merges, ``on_metrics`` emission
-- must retain at least 0.90x (<=10%).  Result equality across all three paths is
asserted before timing, so a telemetry change that perturbs sweep output fails here too.

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

from repro.experiments.engine import run_experiment
from repro.experiments.measures import _ans_size_trial
from repro.experiments.results import ExperimentResult, SeriesPoint
from repro.experiments.runner import build_trial
from repro.experiments.spec import ExperimentSpec
from repro.experiments.stats import summarize
from repro.metrics import BandwidthMetric
from repro.topology import FieldSpec

#: 24 rounds per run order: one sweep takes a few milliseconds, and at six per order the
#: median of a 2-vCPU host's paired ratios still moved by about 0.5% from run to run.
ORDERS = tuple(itertools.permutations(("direct", "off", "on")))
ROUNDS = 24 * len(ORDERS)
OFF_FLOOR = 0.98
ON_FLOOR = 0.90


def dispatch_bench_spec() -> ExperimentSpec:
    """The single-density advertised-set sweep the floors time."""
    return ExperimentSpec(
        experiment_id="bench",
        title="Size of the advertised set",
        measure="ans-size",
        metric="bandwidth",
        densities=(8.0,),
        runs=1,
        pairs_per_run=2,
        node_sample=20,
        field=FieldSpec(width=400.0, height=400.0, radius=100.0),
        seed=42,
    )


def _legacy_ans_size_sweep(spec: ExperimentSpec, metric) -> ExperimentResult:
    """The pre-redesign direct-call harness, kept inline as the benchmark reference.

    This replicates the advertised-set sweep as it ran before the spec/registry/sink
    redesign -- a hand-written loop with no spec validation, no registry resolution beyond
    the selector lookups the old code also performed, and no sink events -- a baseline
    that makes any dispatch overhead of the generic engine machine-visible.
    """
    result = ExperimentResult(
        experiment_id="bench",
        title="Size of the advertised set",
        metric_name=metric.name,
        x_label="density",
        y_label="advertised neighbors per node",
    )
    per_selector = {name: {density: [] for density in spec.densities} for name in spec.selectors}
    for density in spec.densities:
        for run_index in range(spec.runs):
            payload = _ans_size_trial(build_trial(spec, metric, density, run_index))
            for selector_name, sizes in payload["sizes"].items():
                per_selector[selector_name][density].extend(sizes)
    for selector_name in spec.selectors:
        for density in spec.densities:
            summary = summarize(per_selector[selector_name][density])
            result.add_point(selector_name, SeriesPoint(density=density, summary=summary))
    if spec.node_sample is not None:
        result.add_note(f"averaged over a sample of up to {spec.node_sample} nodes per topology")
    result.add_note(f"{spec.runs} run(s) per density; seed={spec.seed}")
    return result


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
