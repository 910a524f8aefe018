"""Ablation benchmark: the FNBP loop-guard policies (``repro.core.fnbp.LoopGuardPolicy``).

Compares the advertised-set size and the reachability of the advertised topology under the
three guard policies: the default (``adjacent-to-target``), the printed pseudocode
(``literal``) and no guard at all.  The default costs a fraction of an extra neighbor per
node and is the only policy that provably leaves no destination uncovered (the Figure 4
situation).
"""

from __future__ import annotations

import pytest

from repro.core import FnbpSelector, LoopGuardPolicy
from repro.metrics import BandwidthMetric, UniformWeightAssigner
from repro.routing import HopByHopRouter, advertise
from repro.topology import FieldSpec, FixedCountNetworkGenerator


def _network():
    metric = BandwidthMetric()
    return FixedCountNetworkGenerator(
        field=FieldSpec(width=500.0, height=500.0, radius=100.0),
        node_count=120,
        seed=23,
        weight_assigners=(UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=23),),
        restrict_to_largest_component=True,
    ).generate()


NETWORK = _network()
METRIC = BandwidthMetric()


@pytest.mark.parametrize("policy", list(LoopGuardPolicy), ids=lambda p: p.value)
def test_loop_guard_ablation(benchmark, policy):
    selector_factory = lambda: FnbpSelector(loop_guard=policy)

    advertised = benchmark.pedantic(
        lambda: advertise(NETWORK, selector_factory(), METRIC), rounds=1, iterations=1
    )
    mean_size = advertised.average_set_size()
    print(f"\nloop_guard={policy.value}: mean ANS size = {mean_size:.2f}")
    assert mean_size > 0

    # Reachability over the advertised topology from one source to every destination.
    router = HopByHopRouter(NETWORK, advertised, METRIC)
    nodes = NETWORK.nodes()
    delivered = sum(
        1 for destination in nodes[1:] if router.link_state_route(nodes[0], destination).delivered
    )
    print(f"loop_guard={policy.value}: delivered {delivered}/{len(nodes) - 1}")
    if policy is LoopGuardPolicy.ADJACENT_TO_TARGET:
        assert delivered == len(nodes) - 1
