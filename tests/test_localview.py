"""Tests for the local view ``G_u``: construction from a network and from protocol tables,
and the one state a view describes."""

from __future__ import annotations

import pytest

from repro.localview import LocalView, all_first_hops
from repro.metrics import BandwidthMetric, DelayMetric
from repro.papergraphs import FIGURE2_OWNER, figure2_network
from repro.topology import Network


class TestFromNetwork:
    def test_one_and_two_hop_sets(self, line_network):
        view = LocalView.from_network(line_network, 1)
        assert view.owner == 1
        assert view.one_hop == {0, 2}
        assert view.two_hop == {3}

    def test_unknown_owner_raises(self, line_network):
        with pytest.raises(KeyError):
            LocalView.from_network(line_network, 99)

    def test_view_contains_only_links_touching_a_neighbor(self):
        """Links between two 2-hop neighbors are invisible (the paper's v8-v9 example)."""
        network = figure2_network()
        view = LocalView.from_network(network, FIGURE2_OWNER)
        assert not view.has_link(8, 9)           # both are two-hop neighbors of u
        assert view.has_link(6, 8)               # one endpoint is a one-hop neighbor
        assert view.has_link(FIGURE2_OWNER, 6)

    def test_link_weights_carried_over(self, line_network, bandwidth):
        view = LocalView.from_network(line_network, 1)
        assert view.link_value(1, 2, bandwidth) == 3.0
        assert view.direct_link_value(0, bandwidth) == 5.0

    def test_direct_link_value_requires_one_hop_neighbor(self, line_network, bandwidth):
        view = LocalView.from_network(line_network, 0)
        with pytest.raises(KeyError):
            view.direct_link_value(2, bandwidth)

    def test_known_targets_sorted(self, line_network):
        view = LocalView.from_network(line_network, 0)
        assert view.known_targets() == [1, 2]

    def test_common_relays(self, diamond_network):
        view = LocalView.from_network(diamond_network, 0)
        assert view.common_relays(3) == {1, 2}

    def test_neighbors_of_unknown_node_is_empty(self, line_network):
        view = LocalView.from_network(line_network, 0)
        assert view.neighbors_of(42) == set()


class TestFromTables:
    def test_round_trip_equivalence_with_network_view(self, diamond_network):
        """A view rebuilt from HELLO-style tables matches the one built from the network."""
        direct = LocalView.from_network(diamond_network, 0)
        neighbor_links = {
            n: diamond_network.link_attributes(0, n) for n in diamond_network.neighbors(0)
        }
        two_hop_links = {
            n: {
                m: diamond_network.link_attributes(n, m)
                for m in diamond_network.neighbors(n)
                if m != 0
            }
            for n in diamond_network.neighbors(0)
        }
        rebuilt = LocalView.from_tables(0, neighbor_links, two_hop_links)
        assert rebuilt.one_hop == direct.one_hop
        assert rebuilt.two_hop == direct.two_hop
        assert rebuilt.links == direct.links

    def test_stale_reports_from_non_neighbors_are_ignored(self):
        view = LocalView.from_tables(
            owner=0,
            neighbor_links={1: {"bandwidth": 2.0}},
            two_hop_links={9: {5: {"bandwidth": 1.0}}},  # 9 is not a neighbor
        )
        assert view.one_hop == {1}
        assert view.two_hop == set()

    def test_validation_rejects_owner_in_neighbor_sets(self):
        links = Network.from_links({(0, 1): {"bandwidth": 1.0}}).adjacency
        with pytest.raises(ValueError):
            LocalView(owner=0, one_hop={0, 1}, two_hop=set(), links=links)

    def test_validation_rejects_overlapping_sets(self):
        links = Network.from_links({(0, 1): {"bandwidth": 1.0}}).adjacency
        with pytest.raises(ValueError):
            LocalView(owner=0, one_hop={1}, two_hop={1}, links=links)

    def test_validation_requires_direct_links(self):
        with pytest.raises(ValueError):
            LocalView(owner=0, one_hop={1}, two_hop=set(), links={0: {}, 1: {}})

    def test_validation_requires_the_neighbors_of_one_hop_nodes(self):
        links = Network.from_links({(0, 1): {"bandwidth": 1.0}, (1, 2): {"bandwidth": 1.0}}).adjacency
        with pytest.raises(ValueError, match="two_hop"):
            LocalView(owner=0, one_hop={1}, two_hop=set(), links=links)

    def test_constructor_keeps_only_g_u_and_leaves_the_graph_alone(self):
        network = Network()
        network.add_link(0, 1, bandwidth=1.0)
        network.add_link(1, 2, bandwidth=2.0)
        network.add_link(1, 3, bandwidth=3.0)
        network.add_link(2, 3, bandwidth=4.0)  # between two two-hop nodes: not in G_0
        links = network.adjacency
        view = LocalView(owner=0, one_hop={1}, two_hop={2, 3}, links=links)
        assert not view.has_link(2, 3)
        assert view.links == {0: {1: links[0][1]}, 1: dict(links[1]), 2: {1: links[1][2]}, 3: {1: links[1][3]}}
        assert view.links[2][1] is links[1][2]  # attributes are referenced, not copied
        assert 3 in links[2]
        empty = {}
        assert LocalView(owner=0, one_hop=(), two_hop=(), links=empty).nodes == {0}
        assert empty == {}  # the owner is not written into the caller's map


class TestViewsDescribeOneState:
    """A view never changes: it answers for the network state it was built from."""

    def _network(self):
        return Network.from_links(
            {
                (0, 1): {"bandwidth": 5.0, "delay": 2.0},
                (1, 2): {"bandwidth": 3.0, "delay": 1.0},
                (0, 2): {"bandwidth": 1.0, "delay": 9.0},
                (2, 3): {"bandwidth": 4.0, "delay": 3.0},
            }
        )

    def _answers(self, view):
        metrics = (BandwidthMetric(), DelayMetric())
        return (
            view.one_hop,
            view.two_hop,
            [(node, [(other, dict(data)) for other, data in row.items()]) for node, row in view.links.items()],
            [dict(view.direct_link_values(metric)) for metric in metrics],
            [all_first_hops(view, metric) for metric in metrics],
        )

    def test_a_view_keeps_its_state_when_the_network_changes(self):
        """Reweighting, removing and adding links in the network leave a view built
        before unchanged; a view built afterwards answers for the new state."""
        network = self._network()
        view = LocalView.from_network(network, 0)
        answers = self._answers(view)
        assert answers[4][0][1].best_value == 5.0  # the direct link is the widest
        network.set_link_weight(0, 1, "bandwidth", 0.25)
        network.remove_link(2, 3)
        network.add_link(1, 4, bandwidth=7.0, delay=1.0)
        assert self._answers(view) == answers
        fresh = all_first_hops(LocalView.from_network(network, 0), BandwidthMetric())
        assert fresh[1].best_value == 1.0  # 0-2-1 (min(1, 3)) beats the degraded link
        assert fresh[1].first_hops == frozenset({2})
        assert sorted(fresh) == [1, 2, 4]

    def test_views_built_together_share_one_copy_of_each_link(self):
        """``all_from_network`` without a graph copies each link's attributes once and
        shares the copy between the views that see the link; the network's own dicts
        are not referenced, so later network mutations stay out of every view."""
        network = self._network()
        views = LocalView.all_from_network(network)
        for u, v in network.links():
            seen = [view.links[u][v] for view in views.values() if view.has_link(u, v)]
            assert len(seen) >= 2, (u, v)
            assert all(data is seen[0] for data in seen), (u, v)
            assert seen[0] is not network.adjacency[u][v] and seen[0] == network.link_attributes(u, v)
        answers = {owner: self._answers(view) for owner, view in views.items()}
        network.set_link_weight(1, 2, "delay", 50.0)
        assert {owner: self._answers(view) for owner, view in views.items()} == answers

    def test_per_metric_caches_are_built_once(self):
        """A compact graph and the direct values are built once per metric token and
        reused by an equal metric instance; another metric gets its own."""
        view = LocalView.from_network(self._network(), 0)
        bandwidth, delay = BandwidthMetric(), DelayMetric()
        compact = view.compact_graph(bandwidth)
        assert view.compact_graph(BandwidthMetric()) is compact
        assert view.compact_graph(delay) is not compact
        direct = view.direct_link_values(delay)
        assert view.direct_link_values(DelayMetric()) is direct
        assert direct == {1: 2.0, 2: 9.0}
        assert view.coverage() is view.coverage()
