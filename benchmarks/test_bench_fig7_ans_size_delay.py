"""Benchmark regenerating the paper's Figure 7: advertised-set size vs density (delay).

Reproduction status (see EXPERIMENTS.md): FNBP stays below the topology-filtering baseline,
but -- unlike the published figure -- the FNBP set for an *additive* metric grows with
density and overtakes the QOLSR MPR set, because shortest-delay paths to different targets
rarely share their first hop.  The assertions below encode what actually reproduces.
"""

from __future__ import annotations

from repro.experiments import run_experiment


def test_fig7_ans_size_delay(benchmark, figure_bench_spec):
    result = benchmark.pedantic(lambda: run_experiment(figure_bench_spec(7)), rounds=1, iterations=1)
    print()
    print(result.to_table())

    densities = result.densities()
    fnbp = result.series["fnbp"]
    filtering = result.series["topology-filtering"]
    qolsr = result.series["qolsr-mpr2"]

    for density in densities:
        # Reproduced part of the ordering: FNBP below topology filtering.
        assert fnbp.mean_at(density) <= filtering.mean_at(density)
        # All sets stay far below the neighborhood size (they are genuine reductions).
        assert fnbp.mean_at(density) < density
        assert qolsr.mean_at(density) < density
