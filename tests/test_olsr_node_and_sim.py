"""Tests for the OLSR node state machine, the event engine, the radio over a lossless
channel and data delivery through the protocol simulator (integration: simulated tables
must converge to the graph-level truth)."""

from __future__ import annotations

import math

import pytest

from repro.core import FnbpSelector
from repro.baselines import OlsrMprSelector
from repro.localview import LocalView
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.olsr import DataPacket, OlsrNode, Packet
from repro.olsr.messages import HelloMessage, TcMessage
from repro.protocol import LossModel, LossyRadio, ProtocolSimulator
from repro.sim.engine import Simulator
from repro.topology import GridNetworkGenerator, Network


class TestSimulatorEngine:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule_at(2.0, lambda: order.append("late"))
        simulator.schedule_at(1.0, lambda: order.append("early"))
        simulator.schedule_in(1.5, lambda: order.append("middle"))
        simulator.run_until(5.0)
        assert order == ["early", "middle", "late"]
        assert simulator.now == 5.0
        assert simulator.processed_events == 3

    def test_run_until_leaves_future_events_pending(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_at(10.0, lambda: fired.append(simulator.now))
        simulator.run_until(5.0)
        assert fired == [] and simulator.processed_events == 0
        simulator.run_until(10.0)
        assert fired == [10.0] and simulator.processed_events == 1

    def test_events_at_one_time_run_in_scheduling_order(self):
        simulator = Simulator()
        order = []
        for label in ("first", "second", "third"):
            simulator.schedule_at(1.0, lambda label=label: order.append(label))
        simulator.schedule_in(1.0, lambda: order.append("fourth"))
        simulator.run_until(1.0)
        assert order == ["first", "second", "third", "fourth"]

    def test_scheduling_in_the_past_is_rejected(self):
        simulator = Simulator()
        simulator.schedule_at(1.0, lambda: None)
        simulator.run_until(1.0)
        with pytest.raises(ValueError):
            simulator.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            simulator.schedule_in(-1.0, lambda: None)

    def test_nan_times_are_rejected(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            simulator.schedule_at(math.nan, lambda: None)
        for delay in (math.nan, -1.0):
            with pytest.raises(ValueError, match=f"delay must be non-negative, got {delay}$"):
                simulator.schedule_in(delay, lambda: None)
        simulator.run_until(1.0)
        assert simulator.processed_events == 0

    def test_an_event_scheduled_for_now_runs_in_the_same_call(self):
        """A zero-delay event scheduled by a running callback runs before ``run_until``
        returns, after every event already queued for that time."""
        simulator = Simulator()
        order = []

        def first():
            order.append(("first", simulator.now))
            simulator.schedule_in(0.0, lambda: order.append(("echo", simulator.now)))

        simulator.schedule_at(2.0, first)
        simulator.schedule_at(2.0, lambda: order.append(("second", simulator.now)))
        simulator.run_until(2.0)
        assert order == [("first", 2.0), ("second", 2.0), ("echo", 2.0)]
        assert simulator.processed_events == 3

    def test_run_until_never_moves_time_backwards(self):
        simulator = Simulator()
        simulator.run_until(5.0)
        simulator.run_until(3.0)
        assert simulator.now == 5.0
        with pytest.raises(ValueError):
            simulator.schedule_at(4.0, lambda: None)
        simulator.schedule_in(1.0, lambda: None)
        simulator.run_until(6.0)
        assert simulator.now == 6.0 and simulator.processed_events == 1


class TestLosslessRadio:
    """``LossModel(loss_rate=0)`` is the paper's ideal MAC layer."""

    def _setup(self, line_network):
        simulator = Simulator()
        received = []
        radio = LossyRadio(
            network=line_network,
            simulator=simulator,
            deliver=lambda node, packet: received.append((node, packet)),
            loss_model=LossModel(seed=0, propagation_delay=0.01),
        )
        return simulator, radio, received

    def test_broadcast_reaches_exactly_the_neighbors(self, line_network):
        simulator, radio, received = self._setup(line_network)
        packet = Packet(message="m", sender=1)
        radio.broadcast(1, packet)
        simulator.run_until(0.009)
        assert received == []  # still in flight: the propagation delay holds
        simulator.run_until(1.0)
        assert sorted(node for node, _ in received) == [0, 2]
        assert radio.statistics.broadcasts == 1
        assert radio.statistics.deliveries == 2
        assert radio.statistics.losses == 0

    def test_unicast_requires_a_link(self, line_network):
        simulator, radio, received = self._setup(line_network)
        radio.unicast(0, 1, Packet(message="m", sender=0))
        radio.unicast(0, 3, Packet(message="m", sender=0))
        simulator.run_until(1.0)
        assert [node for node, _ in received] == [1]
        assert radio.statistics.undeliverable_unicasts == 1

    def test_negative_propagation_delay_rejected(self):
        with pytest.raises(ValueError):
            LossModel(seed=0, propagation_delay=-1.0)


class TestOlsrNode:
    def _hello_from(self, origin, links, mpr=()):
        from repro.olsr.messages import LinkReport, next_sequence_number

        return HelloMessage(
            originator=origin,
            sequence_number=next_sequence_number(),
            links=tuple(LinkReport(n, w, is_mpr=n in mpr) for n, w in links.items()),
        )

    def test_hello_processing_builds_view_and_selection(self, delay):
        node = OlsrNode(0, delay, selector=FnbpSelector(), link_weights={1: {"delay": 1.0}})
        hello = self._hello_from(1, {0: {"delay": 1.0}, 5: {"delay": 2.0}})
        node.handle_packet(Packet(message=hello, sender=1), now=0.0)
        node.refresh_selection()
        view = node.local_view()
        assert view.one_hop == {1}
        assert view.two_hop == {5}
        assert node.ans_set == frozenset({1})
        assert node.mpr_set == frozenset({1})

    def test_tc_generation_advertises_the_ans(self, delay):
        node = OlsrNode(0, delay, link_weights={1: {"delay": 1.0}})
        node.handle_packet(
            Packet(message=self._hello_from(1, {0: {"delay": 1.0}, 5: {"delay": 2.0}}), sender=1),
            now=0.0,
        )
        node.refresh_selection()
        tc = node.make_tc()
        assert tc is not None
        assert tc.advertised_nodes() == frozenset({1})
        assert node.statistics.tcs_sent == 1

    def test_no_tc_when_nothing_to_advertise(self, delay):
        node = OlsrNode(0, delay)
        node.refresh_selection()
        assert node.make_tc() is None

    def test_tc_forwarding_follows_the_mpr_flooding_rule(self, delay):
        node = OlsrNode(0, delay, link_weights={1: {"delay": 1.0}, 2: {"delay": 1.0}})
        # Neighbor 1 declares node 0 as its MPR; neighbor 2 does not.
        node.handle_packet(Packet(message=self._hello_from(1, {0: {"delay": 1.0}}, mpr={0}), sender=1), now=0.0)
        node.handle_packet(Packet(message=self._hello_from(2, {0: {"delay": 1.0}}), sender=2), now=0.0)
        tc = TcMessage(originator=9, sequence_number=12345, ansn=1, advertised=())

        forwarded = node.handle_packet(Packet(message=tc, sender=1, ttl=4), now=1.0)
        assert len(forwarded) == 1 and forwarded[0].sender == 0

        # Duplicate: already retransmitted, never forwarded twice.
        again = node.handle_packet(Packet(message=tc, sender=1, ttl=4), now=1.1)
        assert again == []

        other_tc = TcMessage(originator=9, sequence_number=12346, ansn=1, advertised=())
        from_non_selector = node.handle_packet(Packet(message=other_tc, sender=2, ttl=4), now=1.2)
        assert from_non_selector == []

        expired_ttl = node.handle_packet(
            Packet(message=TcMessage(9, 12347, 1, ()), sender=1, ttl=1), now=1.3
        )
        assert expired_ttl == []

    def test_own_tc_is_ignored(self, delay):
        node = OlsrNode(0, delay)
        tc = TcMessage(originator=0, sequence_number=1, ansn=1, advertised=())
        assert node.handle_packet(Packet(message=tc, sender=3), now=0.0) == []

    def test_data_packet_delivery_and_drop(self, delay):
        node = OlsrNode(0, delay)
        delivered = node.handle_packet(
            Packet(message=DataPacket(source=5, destination=0), sender=1), now=0.0
        )
        assert delivered == []
        assert node.statistics.data_delivered == 1
        dropped = node.handle_packet(
            Packet(message=DataPacket(source=5, destination=7), sender=1), now=0.0
        )
        assert dropped == []
        assert node.statistics.data_dropped == 1

    def test_unknown_message_type_rejected(self, delay):
        node = OlsrNode(0, delay)
        with pytest.raises(TypeError):
            node.handle_packet(Packet(message=object(), sender=1))


@pytest.fixture
def simulated_grid(delay):
    assigners = (UniformWeightAssigner(metric=delay, low=1.0, high=10.0, seed=21),)
    network = GridNetworkGenerator(rows=3, columns=3, spacing=80.0, radius=100.0, weight_assigners=assigners).generate()
    return network


def _average_ans_size(simulation) -> float:
    sets = simulation.ans_sets()
    return sum(len(selected) for selected in sets.values()) / len(sets)


class TestProtocolSimulatorDataDelivery:
    """Warm-up, converged tables and hop-by-hop data delivery on the 3x3 grid."""

    def test_converged_ans_matches_graph_level_selection(self, simulated_grid, delay):
        simulation = ProtocolSimulator(simulated_grid, delay, selector_name="fnbp", seed=5)
        simulation.run_until(25.0)
        expected = {
            node: FnbpSelector().select(LocalView.from_network(simulated_grid, node), delay).selected
            for node in simulated_grid.nodes()
        }
        assert simulation.ans_sets() == expected
        assert simulation.ans_snapshot() == expected

    def test_converged_mpr_matches_graph_level_mpr(self, simulated_grid, delay):
        from repro.olsr.mpr import rfc3626_mpr

        simulation = ProtocolSimulator(simulated_grid, delay, selector_name="olsr-mpr", seed=5)
        simulation.run_until(25.0)
        expected = {
            node: rfc3626_mpr(LocalView.from_network(simulated_grid, node))
            for node in simulated_grid.nodes()
        }
        assert simulation.mpr_sets() == expected
        assert simulation.ans_sets() == {
            node: OlsrMprSelector().select(LocalView.from_network(simulated_grid, node), delay).selected
            for node in simulated_grid.nodes()
        }

    def test_data_delivery_follows_reasonable_paths(self, simulated_grid, delay):
        simulation = ProtocolSimulator(simulated_grid, delay, selector_name="fnbp", seed=5)
        simulation.run_until(25.0)
        report = simulation.send_data(0, 8)
        assert report.delivered
        assert report.path[0] == 0 and report.path[-1] == 8
        assert report.hop_count == len(report.path) - 1 >= 2  # opposite corners are not adjacent
        for u, v in zip(report.path, report.path[1:]):
            assert simulated_grid.has_link(u, v)
        assert report.value == pytest.approx(
            delay.path_value(
                simulated_grid.link_value(u, v, delay) for u, v in zip(report.path, report.path[1:])
            )
        )
        assert math.isfinite(report.value)
        counts = simulation.trace.counts()
        assert counts["data-originated"] == 1
        assert counts["data-received"] == report.hop_count
        assert counts["data-forwarded"] == report.hop_count

    def test_control_traffic_is_generated_and_flooded(self, simulated_grid, delay):
        simulation = ProtocolSimulator(simulated_grid, delay, selector_name="fnbp", seed=5)
        simulation.run_until(20.0)
        counts = simulation.control_message_counts()
        assert counts["hellos_sent"] > 0
        assert counts["tcs_sent"] > 0
        trace_counts = simulation.trace.counts()
        assert trace_counts.get("hello-sent", 0) == counts["hellos_sent"]
        assert _average_ans_size(simulation) > 0

    def test_send_data_between_unknown_nodes_raises(self, simulated_grid, delay):
        simulation = ProtocolSimulator(simulated_grid, delay, seed=5)
        with pytest.raises(KeyError):
            simulation.send_data(0, 999)

    def test_send_data_to_self_is_delivered_in_place(self, simulated_grid, delay):
        simulation = ProtocolSimulator(simulated_grid, delay, seed=5)
        simulation.run_until(10.0)
        report = simulation.send_data(4, 4)
        assert report.delivered and report.path == (4,) and report.hop_count == 0
        assert report.value == delay.identity

    def test_send_data_to_self_is_traced_and_counted_as_a_delivery(self, simulated_grid, delay):
        simulation = ProtocolSimulator(simulated_grid, delay, seed=5)
        simulation.run_until(10.0)
        assert simulation.send_data(4, 4).delivered
        data_events = [(event.kind, event.node) for event in simulation.trace if event.kind.startswith("data-")]
        assert data_events == [("data-originated", 4), ("data-received", 4)]
        statistics = simulation.nodes[4].statistics
        assert (statistics.data_delivered, statistics.data_dropped) == (1, 0)
        assert sum(node.statistics.data_delivered for node in simulation.nodes.values()) == 1


def _lossy_reports(network, metric, packets: int = 12):
    simulation = ProtocolSimulator(
        network, metric, seed=5, loss_model=LossModel(seed=11, loss_rate=0.5)
    )
    simulation.run_until(25.0)
    return [simulation.send_data(0, 8) for _ in range(packets)]


class TestLossyDataDelivery:
    """Data hops are unicasts over the same seeded lossy channel as control traffic."""

    def test_a_packet_lost_on_a_hop_reports_its_partial_path(self, simulated_grid, delay):
        reports = _lossy_reports(simulated_grid, delay)
        lost = [report for report in reports if not report.delivered]
        assert any(report.delivered for report in reports)
        assert any(len(report.path) >= 2 for report in lost), "no packet was lost mid-path"
        for report in lost:
            assert report.path[0] == 0 and report.path[-1] != 8
            assert report.hop_count == len(report.path) - 1
            assert report.value == delay.worst
            for u, v in zip(report.path, report.path[1:]):
                assert simulated_grid.has_link(u, v)

    def test_equal_seeds_give_equal_reports(self, simulated_grid, delay):
        assert _lossy_reports(simulated_grid, delay) == _lossy_reports(simulated_grid, delay)
