"""Tests of the FNBP loop guard: the paper's Figure 4 pathology and reachability properties."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import FnbpSelector, LoopGuardPolicy, covering_relays
from repro.localview import LocalView
from repro.metrics import BandwidthMetric, DelayMetric
from repro.papergraphs.figure4 import A, B, C, D, E, figure4_network
from repro.routing import HopByHopRouter, advertise
from tests.test_properties_first_hops import random_weighted_networks


def _select(network, owner, guard):
    view = LocalView.from_network(network, owner)
    return FnbpSelector(loop_guard=guard).select(view, BandwidthMetric())


def _explain(network, owner, guard):
    view = LocalView.from_network(network, owner)
    return FnbpSelector(loop_guard=guard).explain(view, BandwidthMetric())


class TestFigure4:
    def test_without_guard_a_and_b_defer_to_each_other(self):
        network = figure4_network()
        result_a = _explain(network, A, LoopGuardPolicy.OFF)
        result_b = _explain(network, B, LoopGuardPolicy.OFF)
        # Mutual deferral: A relies on B for E, B relies on A for E, and D is selected by
        # neither, which is exactly the loop the paper describes.
        assert covering_relays(result_a)[E] == B
        assert covering_relays(result_b)[E] == A
        assert D not in result_a.selected
        assert D not in result_b.selected

    def test_with_guard_the_smallest_id_node_selects_the_adjacent_relay(self):
        network = figure4_network()
        result_a = _explain(network, A, LoopGuardPolicy.ADJACENT_TO_TARGET)
        result_b = _explain(network, B, LoopGuardPolicy.ADJACENT_TO_TARGET)
        # A (smallest id among {A, B, D}) must take responsibility and select D.
        assert D in result_a.selected
        assert covering_relays(result_a)[E] == D
        # B keeps deferring (its id is not the smallest), exactly as in the paper.
        assert covering_relays(result_b)[E] == A

    def test_guard_only_fires_for_the_smallest_id(self):
        network = figure4_network()
        result_b = _explain(network, B, LoopGuardPolicy.ADJACENT_TO_TARGET)
        reasons = {decision.reason for decision in result_b.decisions if decision.target == E}
        assert reasons == {"covered-by-existing-ans"}

    def test_literal_guard_does_not_select_the_adjacent_relay(self):
        """The printed pseudocode (ablation) cannot repair Figure 4: it never selects D."""
        network = figure4_network()
        result_a = _select(network, A, LoopGuardPolicy.LITERAL)
        assert D not in result_a.selected

    def test_guarded_advertised_topology_reaches_e(self):
        network = figure4_network()
        metric = BandwidthMetric()
        advertised = advertise(network, FnbpSelector(), metric)
        router = HopByHopRouter(network, advertised, metric)
        for source in (A, B, C):
            outcome = router.link_state_route(source, E)
            assert outcome.delivered
            assert outcome.path[-2] == D  # the only physical access to E


class TestReachabilityProperty:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(network=random_weighted_networks(max_nodes=10))
    def test_unreachable_destinations_are_never_in_the_two_hop_neighborhood(self, network):
        """What the identifier guard actually guarantees -- and what it does not.

        The guard makes every destination within two hops of a source reachable over the
        advertised topology (that is the Figure 4 repair).  It does *not* guarantee global
        reachability for concave metrics: two distant nodes can still defer to each other for
        a target further away when a third, smaller-id node on the tied best paths has no
        coverage problem of its own and therefore never takes responsibility.  This is a
        reproduction finding; on the paper's dense random topologies the situation is rare
        (the measured delivery ratio is 1.0).
        Here we assert the guaranteed part: any unreachable destination lies strictly beyond
        the source's two-hop neighborhood.
        """
        if not network.is_connected():
            network = network.largest_component()
        if len(network) < 2:
            return
        for metric in (BandwidthMetric(), DelayMetric()):
            advertised = advertise(network, FnbpSelector(), metric)
            router = HopByHopRouter(network, advertised, metric)
            nodes = network.nodes()
            source = nodes[0]
            near = network.neighbors(source) | network.two_hop_neighbors(source)
            for destination in nodes[1:]:
                outcome = router.link_state_route(source, destination)
                if destination in near:
                    assert outcome.delivered, (
                        f"{metric.name}: two-hop destination {destination} unreachable from "
                        f"{source} over the FNBP advertisements"
                    )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(network=random_weighted_networks(max_nodes=10))
    def test_every_two_hop_target_is_covered_after_selection(self, network):
        """After FNBP runs, every one-/two-hop neighbor is covered: either its direct link is
        optimal or some selected ANS member starts an optimal path (the algorithm's
        invariant)."""
        from repro.localview import all_first_hops

        metric = BandwidthMetric()
        for owner in network.nodes():
            view = LocalView.from_network(network, owner)
            result = FnbpSelector().select(view, metric)
            first_hops = all_first_hops(view, metric)
            for target in view.known_targets():
                hops = first_hops[target]
                if not hops.reachable:
                    continue
                covered = (
                    target in hops.first_hops
                    or bool(hops.first_hops & result.selected)
                    or bool(view.common_relays(target) & result.selected)
                )
                assert covered
