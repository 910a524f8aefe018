"""CI floor for the batched CSR kernels: never slower than the per-view scalar path.

These tests enforce the regression floor -- the batched paths must not fall below parity
with the scalar code they replace -- plus the result-equality bar, so a speedup that
silently becomes a slowdown (or a divergence) fails the smoke run.  The same floor holds
QOLSR MPR-2 on the views' coverage masks to the set-based routine it replaced
(``tests/mpr_oracles.py``).  What the kernels cost inside real sweeps is perfbench's to
measure (``perfbench/run.py --trace 1``; ``localview.prime_first_hops_s`` for the
first-hop kernels).
"""

from __future__ import annotations

import gc
import time

from repro.core.selection import make_selector
from repro.localview import LocalView, NetworkGraph, all_first_hops, prime_first_hops
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.topology import FieldSpec, FixedCountNetworkGenerator
from tests.mpr_oracles import qolsr_sets

ROUNDS = 3


def dense_network():
    """The dense benchmark topology (mirrors ``test_bench_micro_selection._dense_view``)."""
    metrics = (BandwidthMetric(), DelayMetric())
    assigners = tuple(
        UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=31 + i)
        for i, metric in enumerate(metrics)
    )
    return FixedCountNetworkGenerator(
        field=FieldSpec(width=420.0, height=420.0, radius=100.0),
        node_count=220,
        seed=13,
        weight_assigners=assigners,
        restrict_to_largest_component=True,
    ).generate()


def _solve_rounds(metric):
    """(scalar_min_s, batched_min_s) for cold-cache full-network first-hop solves."""
    network = dense_network()
    views = list(LocalView.all_from_network(network).values())

    def scalar():
        for view in views:
            view._compact = {}
            view._first_hops = {}
        return {view.owner: all_first_hops(view, metric) for view in views}

    def batched():
        attached = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))
        prime_first_hops(attached.values(), metric)
        return {owner: all_first_hops(view, metric) for owner, view in attached.items()}

    assert scalar() == batched(), "batched CSR kernels diverge from the scalar solvers"
    scalar_s = []
    batched_s = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        scalar()
        scalar_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched()
        batched_s.append(time.perf_counter() - t0)
    return min(scalar_s), min(batched_s)


def test_batched_delay_kernel_at_least_matches_scalar():
    scalar_s, batched_s = _solve_rounds(DelayMetric())
    assert batched_s <= scalar_s, (
        f"batched delay kernel regressed below 1.0x of the scalar path: "
        f"scalar {scalar_s:.4f}s vs batched {batched_s:.4f}s"
    )


def test_batched_bandwidth_kernel_at_least_matches_scalar():
    scalar_s, batched_s = _solve_rounds(BandwidthMetric())
    assert batched_s <= scalar_s, (
        f"batched bandwidth kernel regressed below 1.0x of the scalar path: "
        f"scalar {scalar_s:.4f}s vs batched {batched_s:.4f}s"
    )


def _filtering_rounds(metric):
    """(scalar_s, batched_min_s) for network-wide topology filtering, results compared.

    The scalar side (an RNG reduction of each view's link map, seconds per round) runs
    once; each batched round starts from a fresh shared CSR, so the witness table is
    rebuilt.
    """
    network = dense_network()
    selector = make_selector("topology-filtering")
    scalar_views = LocalView.all_from_network(network)

    def batched():
        ng = NetworkGraph.from_network(network)
        views = LocalView.all_from_network(network, network_graph=ng)
        return selector.select_all(network, metric, views=views)

    t0 = time.perf_counter()
    scalar = {owner: selector.select(view, metric) for owner, view in scalar_views.items()}
    scalar_s = time.perf_counter() - t0
    batched_s = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        result = batched()
        batched_s.append(time.perf_counter() - t0)
        assert result == scalar, "batched topology filtering diverges from the scalar selector"
    return scalar_s, min(batched_s)


def test_batched_topology_filtering_at_least_matches_scalar():
    try:
        for metric in (DelayMetric(), BandwidthMetric()):
            scalar_s, batched_s = _filtering_rounds(metric)
            assert batched_s <= scalar_s, (
                f"batched topology filtering ({metric.name}) regressed below 1.0x of the "
                f"scalar path: scalar {scalar_s:.4f}s vs batched {batched_s:.4f}s"
            )
    finally:
        # Collect the views and results of the rounds here, so that no collection of
        # what they leave behind lands inside a later test's timed rounds.
        gc.collect()


def test_qolsr_on_coverage_masks_at_least_matches_the_set_routine():
    """QOLSR MPR-2's ``select_all`` on fresh attached views, coverage records built inside
    the timed region, against the set-based oracle on fresh views; results compared."""
    network = dense_network()
    metric = BandwidthMetric()
    selector = make_selector("qolsr-mpr2")
    ng = NetworkGraph.from_network(network)

    def masks():
        views = LocalView.all_from_network(network, network_graph=ng)
        results = selector.select_all(network, metric, views=views)
        return {owner: result.selected for owner, result in results.items()}

    def sets():
        views = LocalView.all_from_network(network, network_graph=ng)
        return {owner: qolsr_sets(view, metric, "qolsr-mpr2") for owner, view in views.items()}

    assert masks() == sets(), "QOLSR on coverage masks diverges from the set-based routine"
    masks_s = []
    sets_s = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        masks()
        masks_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        sets()
        sets_s.append(time.perf_counter() - t0)
    assert min(masks_s) <= min(sets_s), (
        f"QOLSR MPR-2 on coverage masks regressed below 1.0x of the set-based routine: "
        f"sets {min(sets_s):.4f}s vs masks {min(masks_s):.4f}s"
    )
