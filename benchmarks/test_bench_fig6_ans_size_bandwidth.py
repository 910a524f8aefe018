"""Benchmark regenerating the paper's Figure 6: advertised-set size vs density (bandwidth).

Expected shape (checked by the assertions): FNBP advertises the fewest neighbors of the
three protocols and its set barely grows with density, while the QOLSR MPR set keeps
growing.
"""

from __future__ import annotations

from repro.experiments import run_experiment


def test_fig6_ans_size_bandwidth(benchmark, figure_bench_spec):
    result = benchmark.pedantic(
        lambda: run_experiment(figure_bench_spec(6)), rounds=1, iterations=1
    )
    print()
    print(result.to_table())

    densities = result.densities()
    fnbp = result.series["fnbp"]
    qolsr = result.series["qolsr-mpr2"]
    filtering = result.series["topology-filtering"]

    # FNBP has the smallest advertised set at every density (the paper's headline).
    for density in densities:
        assert fnbp.mean_at(density) <= qolsr.mean_at(density)
        assert fnbp.mean_at(density) <= filtering.mean_at(density)

    # FNBP stays roughly flat while QOLSR grows with density.
    if len(densities) >= 2:
        fnbp_growth = fnbp.mean_at(densities[-1]) - fnbp.mean_at(densities[0])
        qolsr_growth = qolsr.mean_at(densities[-1]) - qolsr.mean_at(densities[0])
        assert fnbp_growth <= qolsr_growth
        assert fnbp_growth <= 2.0
