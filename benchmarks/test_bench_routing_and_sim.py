"""Benchmarks for the routing layer and the discrete-event protocol simulation."""

from __future__ import annotations

import pytest

from repro.core import FnbpSelector
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.protocol import ProtocolSimulator
from repro.routing import HopByHopRouter, advertise, optimal_route
from repro.topology import FieldSpec, FixedCountNetworkGenerator, GridNetworkGenerator


def _network(node_count=150, seed=17):
    metrics = (BandwidthMetric(), DelayMetric())
    assigners = tuple(
        UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=seed + i)
        for i, metric in enumerate(metrics)
    )
    return FixedCountNetworkGenerator(
        field=FieldSpec(width=600.0, height=600.0, radius=100.0),
        node_count=node_count,
        seed=seed,
        weight_assigners=assigners,
        restrict_to_largest_component=True,
    ).generate()


NETWORK = _network()
BANDWIDTH = BandwidthMetric()
ADVERTISED = advertise(NETWORK, FnbpSelector(), BANDWIDTH)


def test_bench_advertise_network_wide(benchmark):
    """Run FNBP at every node and assemble the advertised topology (one sweep trial's core)."""
    advertised = benchmark.pedantic(
        lambda: advertise(NETWORK, FnbpSelector(), BANDWIDTH), rounds=1, iterations=2
    )
    assert advertised.average_set_size() > 0


def test_bench_centralized_optimal_route(benchmark):
    nodes = NETWORK.nodes()
    source, destination = nodes[0], nodes[-1]
    route = benchmark(lambda: optimal_route(NETWORK, source, destination, BANDWIDTH))
    assert route.reachable


def test_bench_link_state_route(benchmark):
    router = HopByHopRouter(NETWORK, ADVERTISED, BANDWIDTH)
    nodes = NETWORK.nodes()
    source, destination = nodes[0], nodes[-1]
    outcome = benchmark(lambda: router.link_state_route(source, destination))
    assert outcome.delivered


def test_bench_protocol_simulation_convergence(benchmark):
    """Full stack: HELLO exchange, selection, TC flooding and route computation on a grid."""
    metric = DelayMetric()
    network = GridNetworkGenerator(
        rows=5,
        columns=5,
        spacing=80.0,
        radius=100.0,
        weight_assigners=(UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=3),),
    ).generate()

    def run_simulation():
        simulation = ProtocolSimulator(network, metric, selector_name="fnbp", seed=1)
        simulation.run_until(20.0)
        return simulation

    simulation = benchmark.pedantic(run_simulation, rounds=1, iterations=1)
    assert any(simulation.ans_sets().values())
    report = simulation.send_data(0, 24)
    assert report.delivered
