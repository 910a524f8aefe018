#!/usr/bin/env python3
"""Quickstart: run FNBP at one node of a small QoS-weighted network and inspect the result.

The script builds a small random wireless network (unit-disk graph with uniform random
bandwidth and delay weights, exactly the paper's model), picks one node, shows its local
two-hop view, runs FNBP for both metrics and compares the advertised set with the classical
RFC 3626 MPR set.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    BandwidthMetric,
    DelayMetric,
    FnbpSelector,
    LocalView,
    OlsrMprSelector,
    covering_relays,
)
from repro.metrics import UniformWeightAssigner
from repro.topology import FieldSpec, FixedCountNetworkGenerator


def build_demo_network():
    """A reproducible 40-node network in a 400 x 400 field with both metrics weighted."""
    bandwidth, delay = BandwidthMetric(), DelayMetric()
    assigners = (
        UniformWeightAssigner(metric=bandwidth, low=1.0, high=10.0, seed=7),
        UniformWeightAssigner(metric=delay, low=1.0, high=10.0, seed=8),
    )
    generator = FixedCountNetworkGenerator(
        field=FieldSpec(width=400.0, height=400.0, radius=100.0),
        node_count=40,
        seed=7,
        weight_assigners=assigners,
        restrict_to_largest_component=True,
    )
    return generator.generate()


def main() -> None:
    network = build_demo_network()
    print("Network:", network.describe())

    owner = network.nodes()[len(network) // 2]
    view = LocalView.from_network(network, owner)
    print(f"\nLocal view of node {owner}: "
          f"{len(view.one_hop)} one-hop and {len(view.two_hop)} two-hop neighbors")

    for metric in (BandwidthMetric(), DelayMetric()):
        selection = FnbpSelector().explain(view, metric)
        mpr = OlsrMprSelector().select(view, metric)
        print(f"\n--- {metric.name} ---")
        print(f"RFC 3626 MPR set  ({len(mpr.selected)} nodes): {sorted(mpr.selected)}")
        print(f"FNBP advertised set ({len(selection.selected)} nodes): {sorted(selection.selected)}")
        relays = covering_relays(selection)
        rerouted = {target: relay for target, relay in relays.items() if relay != target and target in view.one_hop}
        if rerouted:
            print("One-hop neighbors better reached through a relay than directly:")
            for target, relay in sorted(rerouted.items()):
                direct = view.direct_link_value(target, metric)
                print(f"  {owner} -> {target}: direct {metric.name}={direct:.2f}, relayed via {relay}")
        print("\nDecision trace:")
        print(selection.explain())


if __name__ == "__main__":
    main()
