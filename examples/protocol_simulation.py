#!/usr/bin/env python3
"""Run the full discrete-event protocol stack and watch FNBP work inside OLSR.

The script simulates a 30-node network over an ideal (lossless) channel: every node
periodically broadcasts HELLOs, learns its two-hop neighborhood, runs FNBP (plus the RFC
3626 MPR selection used for flooding), floods TC messages through the MPR backbone, and
finally forwards a few data packets hop by hop, each node routing on the advertised
topology it learned.  The same scenario is then repeated with the original OLSR selection
so the control-traffic and path-quality differences are visible.

Run with:  python examples/protocol_simulation.py
"""

from __future__ import annotations

from repro import BandwidthMetric
from repro.metrics import UniformWeightAssigner
from repro.protocol import ProtocolSimulator
from repro.routing import optimal_route
from repro.topology import FieldSpec, FixedCountNetworkGenerator

METRIC = BandwidthMetric()


def build_network():
    assigner = UniformWeightAssigner(metric=METRIC, low=1.0, high=10.0, seed=11)
    generator = FixedCountNetworkGenerator(
        field=FieldSpec(width=350.0, height=350.0, radius=100.0),
        node_count=30,
        seed=11,
        weight_assigners=(assigner,),
        restrict_to_largest_component=True,
    )
    return generator.generate()


def run_scenario(network, selector_name: str, label: str):
    print(f"\n=== {label} ===")
    simulation = ProtocolSimulator(network, METRIC, selector_name=selector_name, seed=3)
    simulation.run_until(30.0)

    sets = simulation.ans_sets()
    mean_size = sum(len(selected) for selected in sets.values()) / len(sets)
    print(f"mean advertised-set size : {mean_size:.2f} neighbors/node")
    counts = simulation.control_message_counts()
    print(f"control traffic          : {counts['hellos_sent']} HELLOs, "
          f"{counts['tcs_sent']} TCs sent, {counts['tcs_forwarded']} TC retransmissions")

    nodes = network.nodes()
    pairs = [(nodes[0], nodes[-1]), (nodes[1], nodes[-2]), (nodes[2], nodes[-3])]
    for source, destination in pairs:
        report = simulation.send_data(source, destination)
        optimum = optimal_route(network, source, destination, METRIC)
        status = "delivered" if report.delivered else "LOST"
        print(f"data {source:>3} -> {destination:<3}: {status} over {report.hop_count} hops, "
              f"bandwidth {report.value:.2f} (optimal {optimum.value:.2f})")
    return simulation


def main() -> None:
    network = build_network()
    print("Network:", network.describe())
    run_scenario(network, "fnbp", "FNBP (QoS advertised neighbor set)")
    run_scenario(network, "olsr-mpr", "Original OLSR (MPR set advertised)")


if __name__ == "__main__":
    main()
