"""Shared configuration for the benchmark suite.

Every figure benchmark runs the same harness the paper's evaluation uses, on a reduced
profile by default so the whole suite finishes in a few minutes.

Profiles (``REPRO_BENCH_PROFILE`` environment variable):

* ``quick`` (default) -- trimmed densities, 1 run per density, sampled nodes; keeps the
  paper's x-axis shape while staying laptop-friendly.
* ``paper`` -- the full evaluation: 100 runs per density at the paper's densities (up to
  ~1100 nodes of degree 35).
* ``smoke`` -- a seconds-long sanity pass (one tiny density, one run).

Parallelism (``REPRO_WORKERS`` environment variable): the sweep harness fans the
independent trials of each density out over that many worker processes (``0`` = one per
CPU; unset = serial).  Each trial is derived deterministically from its run index and the
results are aggregated in run order, so sweep outputs are bit-identical whatever the worker
count -- ``REPRO_WORKERS`` only changes the wall clock, which is what makes the ``paper``
profile routine on a multi-core machine.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentSpec, figure_spec

#: Overrides of the default (quick) benchmark profile on top of the figure's quick-profile
#: spec: one run per density and more pairs, keeping the paper's x-axis shape (low /
#: medium / high density) while staying laptop-friendly.
QUICK_BENCH_OVERRIDES = {"runs": 1, "pairs_per_run": 4}


def bench_profile() -> str:
    return os.environ.get("REPRO_BENCH_PROFILE", "quick")


def bench_spec(figure: int) -> ExperimentSpec:
    """The spec of one figure benchmark under the active profile."""
    profile = bench_profile()
    if profile in ("paper", "smoke"):
        return figure_spec(figure, profile)
    return figure_spec(figure, "quick").with_overrides(**QUICK_BENCH_OVERRIDES)


@pytest.fixture
def figure_bench_spec():
    return bench_spec
