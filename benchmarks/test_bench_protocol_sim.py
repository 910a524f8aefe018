"""CI floor for the event-driven protocol simulator's event-queue throughput.

perfbench's ``protocol-convergence`` workload measures the simulator end to end and by
layer (``perfbench/run.py``; ``protocol.events_per_s`` among its layers).  This smoke
enforces only a conservative regression floor -- the event queue must push control
traffic at a rate no real sweep would notice -- plus the semantic bar: on a lossless
settled network the simulated agents must agree with the analytic selections, so a
throughput "fix" that breaks the protocol fails here too.
"""

from __future__ import annotations

import time

from repro.metrics import BandwidthMetric, UniformWeightAssigner
from repro.mobility.models import LinkChurnGenerator
from repro.protocol import LossModel, ProtocolSimulator
from repro.topology import FieldSpec

ROUNDS = 3

#: Deliberately far below the measured rate (tens of thousands of events/sec on the
#: benchmark machines) so only an order-of-magnitude regression trips the floor.
EVENTS_PER_SECOND_FLOOR = 2_000.0


def _generator(metric):
    return LinkChurnGenerator(
        field=FieldSpec(width=420.0, height=420.0, radius=100.0),
        node_count=40,
        seed=13,
        weight_assigners=(UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=31),),
    )


def test_event_queue_throughput_floor():
    metric = BandwidthMetric()
    generator = _generator(metric)
    rates = []
    for _ in range(ROUNDS):
        dynamic = generator.dynamic()
        sim = ProtocolSimulator(
            dynamic.network,
            metric,
            selector_name="fnbp",
            seed=7,
            hello_interval=1.0,
            tc_interval=1.0,
            loss_model=LossModel(seed=3, loss_rate=0.1),
        )
        sim.attach(dynamic)
        start = time.perf_counter()
        sim.run_until(4.0)
        for step in range(1, 4):
            dynamic.advance()
            sim.run_until(4.0 + step)
        elapsed = time.perf_counter() - start
        assert sim.simulator.processed_events > 0
        rates.append(sim.simulator.processed_events / elapsed)
    best = max(rates)
    assert best >= EVENTS_PER_SECOND_FLOOR, (
        f"protocol event queue regressed to {best:.0f} events/s "
        f"(floor {EVENTS_PER_SECOND_FLOOR:.0f})"
    )


def test_lossless_simulation_still_matches_analytic_selections():
    metric = BandwidthMetric()
    network = _generator(metric).generate(0)
    sim = ProtocolSimulator(
        network,
        metric,
        selector_name="fnbp",
        seed=7,
        hello_interval=1.0,
        tc_interval=1.0,
        loss_model=LossModel(seed=3, loss_rate=0.0),
    )
    sim.run_until(8.0)
    from repro.core.selection import make_selector
    from repro.localview import LocalView

    selector = make_selector("fnbp")
    analytic = {
        owner: frozenset(selector.select(view, metric).selected)
        for owner, view in LocalView.all_from_network(network).items()
    }
    assert sim.ans_snapshot() == analytic
