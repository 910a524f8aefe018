"""Benchmark regenerating the paper's Figure 8: bandwidth overhead vs the centralized optimum.

Expected shape: FNBP and topology filtering sit close together with a small overhead (the
paper reports under 2 % for FNBP at moderate densities) and original QOLSR is the worst of
the three.
"""

from __future__ import annotations

import math

from repro.experiments import run_experiment


def test_fig8_bandwidth_overhead(benchmark, figure_bench_spec):
    result = benchmark.pedantic(lambda: run_experiment(figure_bench_spec(8)), rounds=1, iterations=1)
    print()
    print(result.to_table())

    densities = result.densities()
    fnbp = result.series["fnbp"]
    qolsr = result.series["qolsr-mpr2"]
    filtering = result.series["topology-filtering"]

    for density in densities:
        for series in (fnbp, qolsr, filtering):
            value = series.mean_at(density)
            if not math.isnan(value):
                assert -1e-9 <= value <= 1.0

    fnbp_mean = sum(v for v in fnbp.means() if not math.isnan(v)) / len(densities)
    qolsr_mean = sum(v for v in qolsr.means() if not math.isnan(v)) / len(densities)
    filtering_mean = sum(v for v in filtering.means() if not math.isnan(v)) / len(densities)

    # The QoS-aware advertised sets lose little bandwidth; original QOLSR loses the most.
    assert fnbp_mean <= qolsr_mean + 1e-9
    assert filtering_mean <= qolsr_mean + 1e-9
    assert fnbp_mean <= 0.10

    # Every routing attempt over the FNBP advertisements succeeded.
    for point in fnbp.points:
        assert point.extra["delivery_ratio"] == 1.0
