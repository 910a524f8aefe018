"""Tests for OLSR messages, the neighbor/topology/duplicate tables and routing tables."""

from __future__ import annotations

import math

import pytest

from repro.localview.compactgraph import CompactGraph
from repro.metrics import BandwidthMetric, DelayMetric
from repro.olsr import routing_table as routing_table_module
from repro.olsr import (
    AdvertisedLink,
    DuplicateSet,
    HelloMessage,
    LinkReport,
    NeighborTable,
    Packet,
    RoutingTable,
    TcMessage,
    TopologyTable,
    next_sequence_number,
)
from repro.olsr.routing_table import best_next_hop
from repro.topology import Network


def make_hello(originator, links, mpr=()):
    return HelloMessage(
        originator=originator,
        sequence_number=next_sequence_number(),
        links=tuple(
            LinkReport(neighbor=n, weights=w, is_mpr=n in mpr) for n, w in links.items()
        ),
    )


class TestMessages:
    def test_sequence_numbers_are_monotonic(self):
        first, second = next_sequence_number(), next_sequence_number()
        assert second > first

    def test_hello_reported_neighbors_and_mpr_declaration(self):
        hello = make_hello(1, {2: {"delay": 1.0}, 3: {"delay": 2.0}}, mpr={3})
        assert hello.reported_neighbors() == frozenset({2, 3})
        assert hello.declares_mpr(3)
        assert not hello.declares_mpr(2)

    def test_tc_advertised_nodes(self):
        tc = TcMessage(
            originator=1,
            sequence_number=next_sequence_number(),
            ansn=4,
            advertised=(AdvertisedLink(2, {"delay": 1.0}), AdvertisedLink(5, {"delay": 3.0})),
        )
        assert tc.advertised_nodes() == frozenset({2, 5})

    def test_packet_forwarding_updates_metadata(self):
        packet = Packet(message="payload", sender=1, ttl=8, hops=2)
        forwarded = packet.forwarded_by(3)
        assert forwarded.sender == 3
        assert forwarded.ttl == 7
        assert forwarded.hops == 3
        assert forwarded.message == "payload"


class TestNeighborTable:
    def test_update_from_hello_builds_one_and_two_hop_sets(self):
        table = NeighborTable(owner=0)
        hello = make_hello(1, {0: {"delay": 1.0}, 5: {"delay": 2.0}, 6: {"delay": 3.0}})
        table.update_from_hello(hello, link_weights={"delay": 1.0}, now=0.0, hold_time=6.0)
        assert table.neighbors() == frozenset({1})
        assert table.two_hop_neighbors() == frozenset({5, 6})
        assert table.neighbor_weights(1) == {"delay": 1.0}

    def test_two_hop_excludes_owner_and_other_neighbors(self):
        table = NeighborTable(owner=0)
        table.update_from_hello(make_hello(1, {0: {}, 2: {}}), {"delay": 1.0})
        table.update_from_hello(make_hello(2, {0: {}, 1: {}, 7: {}}), {"delay": 2.0})
        assert table.neighbors() == frozenset({1, 2})
        assert table.two_hop_neighbors() == frozenset({7})

    def test_mpr_selector_tracking(self):
        table = NeighborTable(owner=0)
        table.update_from_hello(make_hello(1, {0: {}}, mpr={0}), {"delay": 1.0})
        table.update_from_hello(make_hello(2, {0: {}}), {"delay": 1.0})
        assert table.mpr_selectors() == frozenset({1})

    def test_expiry_drops_stale_entries(self):
        table = NeighborTable(owner=0)
        table.update_from_hello(make_hello(1, {0: {}, 5: {}}), {"delay": 1.0}, now=0.0, hold_time=6.0)
        table.expire(now=5.0)
        assert table.neighbors() == frozenset({1})
        table.expire(now=7.0)
        assert table.neighbors() == frozenset()
        assert table.two_hop_neighbors() == frozenset()

    def test_fresh_hello_replaces_previous_reports(self):
        table = NeighborTable(owner=0)
        table.update_from_hello(make_hello(1, {0: {}, 5: {}}), {"delay": 1.0})
        table.update_from_hello(make_hello(1, {0: {}, 6: {}}), {"delay": 1.0})
        assert table.two_hop_neighbors() == frozenset({6})

    def test_link_tables_feed_local_view(self):
        table = NeighborTable(owner=0)
        table.update_from_hello(
            make_hello(1, {0: {"delay": 1.0}, 5: {"delay": 4.0}}), {"delay": 1.0}
        )
        assert table.neighbor_link_table() == {1: {"delay": 1.0}}
        assert table.two_hop_link_table() == {1: {5: {"delay": 4.0}}}


class TestTopologyTable:
    def _tc(self, originator, ansn, advertised):
        return TcMessage(
            originator=originator,
            sequence_number=next_sequence_number(),
            ansn=ansn,
            advertised=tuple(AdvertisedLink(n, w) for n, w in advertised.items()),
        )

    def test_update_and_graph(self):
        table = TopologyTable(owner=0)
        assert table.update_from_tc(self._tc(1, 1, {2: {"delay": 1.0}, 3: {"delay": 2.0}}))
        assert table.advertised_links() == {(1, 2): {"delay": 1.0}, (1, 3): {"delay": 2.0}}

    def test_stale_ansn_is_ignored(self):
        table = TopologyTable(owner=0)
        table.update_from_tc(self._tc(1, 5, {2: {"delay": 1.0}}))
        assert not table.update_from_tc(self._tc(1, 3, {9: {"delay": 1.0}}))
        assert (1, 9) not in table.advertised_links()

    def test_newer_ansn_replaces_old_advertisements(self):
        table = TopologyTable(owner=0)
        table.update_from_tc(self._tc(1, 1, {2: {"delay": 1.0}}))
        table.update_from_tc(self._tc(1, 2, {3: {"delay": 1.0}}))
        links = table.advertised_links()
        assert (1, 3) in links and (1, 2) not in links

    def test_expiry(self):
        table = TopologyTable(owner=0)
        table.update_from_tc(self._tc(1, 1, {2: {"delay": 1.0}}), now=0.0, hold_time=10.0)
        table.expire(now=11.0)
        assert len(table) == 0


class TestDuplicateSet:
    def test_processed_and_retransmitted_are_tracked_separately(self):
        duplicates = DuplicateSet()
        duplicates.mark_processed(1, 100, expires_at=10.0)
        assert duplicates.already_processed(1, 100)
        assert not duplicates.already_retransmitted(1, 100)
        duplicates.mark_retransmitted(1, 100, expires_at=10.0)
        assert duplicates.already_retransmitted(1, 100)

    def test_expiry(self):
        duplicates = DuplicateSet()
        duplicates.mark_processed(1, 100, expires_at=5.0)
        duplicates.expire(now=6.0)
        assert not duplicates.already_processed(1, 100)


class TestRoutingTable:
    def _tables_for_line(self):
        """Owner 0 on the line 0-1-2-3 with delays 1, 2, 1."""
        neighbors = NeighborTable(owner=0)
        neighbors.update_from_hello(
            make_hello(1, {0: {"delay": 1.0}, 2: {"delay": 2.0}}), {"delay": 1.0}
        )
        topology = TopologyTable(owner=0)
        topology.update_from_tc(
            TcMessage(
                originator=2,
                sequence_number=next_sequence_number(),
                ansn=1,
                advertised=(AdvertisedLink(1, {"delay": 2.0}), AdvertisedLink(3, {"delay": 1.0})),
            )
        )
        return neighbors, topology

    def test_routes_to_all_learned_destinations(self):
        table = RoutingTable(owner=0, metric=DelayMetric())
        table.recompute(*self._tables_for_line())
        assert table.next_hop(1) == 1
        assert table.next_hop(2) == 1
        assert table.next_hop(3) == 1
        assert table.entry(3).expected_value == pytest.approx(4.0)
        assert table.destinations() == [1, 2, 3]

    def test_unknown_destination_has_no_route(self):
        table = RoutingTable(owner=0, metric=DelayMetric())
        table.recompute(*self._tables_for_line())
        assert table.next_hop(42) is None

    def test_recompute_with_empty_tables(self):
        table = RoutingTable(owner=0, metric=DelayMetric())
        table.recompute(NeighborTable(owner=0), TopologyTable(owner=0))
        assert len(table) == 0

    def test_each_read_solves_only_its_destination(self, monkeypatch):
        """``recompute`` solves nothing; reading k destinations runs the rule k times."""
        solved = []
        rule = routing_table_module.best_next_hop

        def counting_rule(solver_graph, owner, destination, direct, metric):
            solved.append(destination)
            return rule(solver_graph, owner, destination, direct, metric)

        monkeypatch.setattr(routing_table_module, "best_next_hop", counting_rule)
        table = RoutingTable(owner=0, metric=DelayMetric())
        table.recompute(*self._tables_for_line())
        assert solved == []
        assert table.next_hop(3) == 1
        assert table.entry(2).next_hop == 1
        assert solved == [3, 2]

    def test_answers_come_from_the_tables_as_of_the_last_recompute(self):
        """Square 0-1-3 / 0-2-3: a newer TC makes the link 1-3 slow and neighbor 1 expires.
        Reads keep the snapshot's answers until the next ``recompute``."""
        fast, slow = {"delay": 1.0}, {"delay": 2.0}
        neighbors = NeighborTable(owner=0)
        neighbors.update_from_hello(make_hello(1, {0: fast, 3: fast}), fast, hold_time=5.0)
        neighbors.update_from_hello(make_hello(2, {0: slow, 3: slow}), slow)
        topology = TopologyTable(owner=0)
        advertised = (AdvertisedLink(1, fast), AdvertisedLink(2, slow))
        topology.update_from_tc(TcMessage(3, sequence_number=0, ansn=1, advertised=advertised))
        table = RoutingTable(owner=0, metric=DelayMetric())
        table.recompute(neighbors, topology)
        before = {destination: table.entry(destination) for destination in (1, 2, 3)}
        assert [before[d].next_hop for d in (1, 2, 3)] == [1, 2, 1]
        assert before[3].expected_value == 2.0

        slower = (AdvertisedLink(1, {"delay": 10.0}), AdvertisedLink(2, slow))
        assert topology.update_from_tc(TcMessage(3, sequence_number=1, ansn=2, advertised=slower))
        neighbors.expire(now=6.0)
        assert neighbors.neighbors() == frozenset({2})
        assert {destination: table.entry(destination) for destination in (1, 2, 3)} == before
        assert [table.next_hop(d) for d in (1, 2, 3)] == [1, 2, 1]

        table.recompute(neighbors, topology)
        assert [table.next_hop(d) for d in (1, 2, 3)] == [2, 2, 2]
        assert table.entry(3).expected_value == 4.0
        assert table.entry(1).expected_value == 14.0
        assert table.destinations() == [1, 2, 3]


def _next_hop(links, owner, destination, metric, direct_to=None):
    """``best_next_hop`` for ``owner`` knowing the whole link table ``links``; ``direct``
    holds the owner's links (to the neighbors ``direct_to`` only, when given)."""
    network = Network.from_links(links)
    solver_graph = CompactGraph.from_links(network.adjacency, metric)
    direct = {
        neighbor: metric.link_value_from_attributes(attributes)
        for neighbor, attributes in network.adjacency[owner].items()
        if direct_to is None or neighbor in direct_to
    }
    return best_next_hop(solver_graph, owner, destination, direct, metric)


class TestBestNextHop:
    """The next-hop rule the protocol's routing tables forward with."""

    def test_picks_the_neighbor_on_the_optimal_path(self):
        """Delay: the two-hop route through 1 (2.0) beats the direct link (10.0) and the
        route through 2 (6.0)."""
        links = {
            (0, 3): {"delay": 10.0},
            (0, 1): {"delay": 1.0},
            (1, 3): {"delay": 1.0},
            (0, 2): {"delay": 1.0},
            (2, 3): {"delay": 5.0},
        }
        assert _next_hop(links, 0, 3, DelayMetric()) == (1, 2.0)
        assert _next_hop(links, 0, 2, DelayMetric()) == (2, 1.0)

    def test_equal_values_prefer_fewer_hops(self):
        """Bandwidth: both routes are 5 wide; the two-hop one through 2 wins over the
        three-hop one through 1, although 1 is the smaller identifier."""
        wide = {"bandwidth": 5.0}
        links = {(0, 1): wide, (1, 4): wide, (4, 3): wide, (0, 2): wide, (2, 3): wide}
        assert _next_hop(links, 0, 3, BandwidthMetric()) == (2, 5.0)

    def test_equal_values_and_hops_prefer_the_better_direct_link_then_the_smaller_id(self):
        """Bandwidth: both two-hop routes are 4 wide; the wider direct link decides, and
        with equal direct links the smaller identifier."""
        metric = BandwidthMetric()
        links = {
            (0, 1): {"bandwidth": 6.0},
            (1, 3): {"bandwidth": 4.0},
            (0, 2): {"bandwidth": 9.0},
            (2, 3): {"bandwidth": 4.0},
        }
        assert _next_hop(links, 0, 3, metric) == (2, 4.0)
        links[(0, 1)] = {"bandwidth": 9.0}
        assert _next_hop(links, 0, 3, metric) == (1, 4.0)

    def test_a_route_back_through_the_owner_does_not_count(self):
        """Bandwidth: from 1 the widest way to 3 runs back through the owner (1-0-2-3,
        width 3), which would tie 1 with 2 and win on 1's wider direct link.  Without the
        owner, 1 reaches 3 only at width 2, so 2 is the next hop."""
        links = {
            (0, 1): {"bandwidth": 9.0},
            (1, 3): {"bandwidth": 2.0},
            (0, 2): {"bandwidth": 3.0},
            (2, 3): {"bandwidth": 3.0},
        }
        assert _next_hop(links, 0, 3, BandwidthMetric()) == (2, 3.0)
        # A neighbor whose only way on is back through the owner leads nowhere.
        assert _next_hop(links, 0, 3, BandwidthMetric(), direct_to={1}) == (1, 2.0)
        del links[(1, 3)]
        assert _next_hop(links, 0, 3, BandwidthMetric(), direct_to={1}) is None

    def test_none_when_no_neighbor_leads_to_the_destination(self):
        links = {(0, 1): {"delay": 1.0}, (2, 3): {"delay": 1.0}}
        assert _next_hop(links, 0, 3, DelayMetric()) is None
        assert _next_hop(links, 0, 1, DelayMetric(), direct_to=()) is None
