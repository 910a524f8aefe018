"""Tests for the local view ``G_u``: construction from a network and from protocol tables."""

from __future__ import annotations

import pytest

from repro.localview import LocalView
from repro.metrics import BandwidthMetric
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


class TestCacheInvalidation:
    """The view's derived caches (compact graphs, bottleneck forests) vs link mutation."""

    def _network(self):
        return Network.from_links(
            {
                (0, 1): {"bandwidth": 5.0, "delay": 2.0},
                (1, 2): {"bandwidth": 3.0, "delay": 1.0},
                (0, 2): {"bandwidth": 1.0, "delay": 9.0},
                (2, 3): {"bandwidth": 4.0, "delay": 3.0},
            }
        )

    def test_update_link_drops_compact_graph_and_forest_caches(self):
        from repro.localview import all_first_hops
        from repro.metrics import DelayMetric

        view = LocalView.from_network(self._network(), 0)
        bandwidth, delay = BandwidthMetric(), DelayMetric()
        all_first_hops(view, bandwidth)
        all_first_hops(view, delay)
        stale_compact = view.compact_graph(bandwidth)
        stale_forest = view.bottleneck_forest(bandwidth)
        assert view._compact and view._forest

        view.update_link(0, 1, bandwidth=0.5)

        assert not view._compact and not view._forest  # both caches dropped eagerly
        rebuilt = view.compact_graph(bandwidth)
        assert rebuilt is not stale_compact
        assert view.bottleneck_forest(bandwidth) is not stale_forest
        row = dict(rebuilt.adj[rebuilt.index[0]])
        assert row[rebuilt.index[1]] == 0.5

    def test_requery_after_mutation_reflects_the_new_weight(self):
        """The regression this guards: before invalidation existed, a mutated link kept
        being answered from the stale cached forest."""
        from repro.localview import all_first_hops

        view = LocalView.from_network(self._network(), 0)
        metric = BandwidthMetric()
        before = all_first_hops(view, metric)
        assert before[1].best_value == 5.0
        view.update_link(0, 1, bandwidth=0.25)  # direct link now worse than the detour
        after = all_first_hops(view, metric)
        assert after[1].best_value == 1.0  # 0-2-1 (min(1, 3)) beats the degraded direct link
        assert after[1].first_hops == frozenset({2})
        fresh = LocalView(owner=0, one_hop=view.one_hop, two_hop=view.two_hop, links=view.links)
        assert after == all_first_hops(fresh, metric)

    def test_update_link_unshares_attribute_dicts_between_sibling_views(self):
        """Batch-built views share link-attribute dictionaries; a mutation through one view
        must stay local to it (other nodes learn of new measurements via the protocol, not
        via shared memory) and must not silently corrupt the siblings' caches."""
        views = LocalView.all_from_network(self._network())
        metric = BandwidthMetric()
        sibling = views[1]
        sibling_before = sibling.compact_graph(metric)

        views[0].update_link(0, 1, bandwidth=9.0)

        assert views[0].link_value(0, 1, metric) == 9.0
        assert sibling.link_value(0, 1, metric) == 5.0  # untouched
        assert sibling.compact_graph(metric) is sibling_before  # its cache is still valid

    def test_update_link_rejects_unknown_links(self):
        view = LocalView.from_network(self._network(), 0)
        with pytest.raises(KeyError):
            view.update_link(0, 99, bandwidth=1.0)
