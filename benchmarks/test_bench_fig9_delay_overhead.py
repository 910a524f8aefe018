"""Benchmark regenerating the paper's Figure 9: delay overhead vs the centralized optimum.

Expected shape: as for Figure 8 -- FNBP and topology filtering close together and small,
original QOLSR clearly worse.
"""

from __future__ import annotations

import math

from repro.experiments import run_experiment


def test_fig9_delay_overhead(benchmark, figure_bench_spec):
    result = benchmark.pedantic(lambda: run_experiment(figure_bench_spec(9)), rounds=1, iterations=1)
    print()
    print(result.to_table())

    densities = result.densities()
    fnbp = result.series["fnbp"]
    qolsr = result.series["qolsr-mpr2"]

    for density in densities:
        for name, series in result.series.items():
            value = series.mean_at(density)
            if not math.isnan(value):
                assert value >= -1e-9, f"{name} reported a negative delay overhead"

    fnbp_mean = sum(v for v in fnbp.means() if not math.isnan(v)) / len(densities)
    qolsr_mean = sum(v for v in qolsr.means() if not math.isnan(v)) / len(densities)
    assert fnbp_mean <= qolsr_mean + 1e-9
    assert fnbp_mean <= 0.15

    for point in fnbp.points:
        assert point.extra["delivery_ratio"] == 1.0
