"""Tests asserting every claim the paper makes about its worked-example figures (1, 2, 4, 5)."""

from __future__ import annotations

import pytest

from repro.core import FnbpSelector, covering_relays
from repro.localview import LocalView, enumerate_best_paths, first_hops_to
from repro.metrics import BandwidthMetric
from repro.papergraphs import (
    FIGURE2_OWNER,
    figure1_network,
    figure2_network,
    figure4_network,
    figure5_network,
    figure5_selections,
)
from repro.papergraphs.figure1 import V1, V3, best_two_hop_bandwidth
from repro.papergraphs.figure4 import A, B, C, D, E
from repro.routing import optimal_route


@pytest.fixture
def bandwidth():
    return BandwidthMetric()


class TestFigure1:
    def test_two_hop_constrained_bandwidth_is_six(self, bandwidth):
        network = figure1_network()
        assert best_two_hop_bandwidth(network, V1, V3) == pytest.approx(6.0)

    def test_widest_path_is_ten_along_the_stated_chain(self, bandwidth):
        network = figure1_network()
        optimum = optimal_route(network, V1, V3, bandwidth)
        assert optimum.value == pytest.approx(10.0)
        assert optimum.path == (1, 6, 5, 4, 3)

    def test_the_widest_path_needs_more_than_two_hops(self, bandwidth):
        network = figure1_network()
        optimum = optimal_route(network, V1, V3, bandwidth)
        assert optimum.hop_count == 4


class TestFigure2:
    @pytest.fixture
    def view(self):
        return LocalView.from_network(figure2_network(), FIGURE2_OWNER)

    def test_fp_to_v3_is_v1_and_v2_with_value_four(self, view, bandwidth):
        result = first_hops_to(view, 3, bandwidth)
        assert result.first_hops == frozenset({1, 2})
        assert result.best_value == pytest.approx(4.0)

    def test_both_optimal_paths_to_v3_are_two_hop(self, view, bandwidth):
        paths = enumerate_best_paths(view.links, FIGURE2_OWNER, 3, bandwidth)
        assert sorted(paths) == [[FIGURE2_OWNER, 1, 3], [FIGURE2_OWNER, 2, 3]]

    def test_direct_links_to_v1_and_v2_have_equal_bandwidth(self, view, bandwidth):
        assert view.direct_link_value(1, bandwidth) == view.direct_link_value(2, bandwidth)

    def test_link_to_v5_is_weaker_than_link_to_v1(self, view, bandwidth):
        assert view.direct_link_value(5, bandwidth) < view.direct_link_value(1, bandwidth)

    def test_v4_is_best_reached_through_the_three_hop_path(self, view, bandwidth):
        result = first_hops_to(view, 4, bandwidth)
        assert result.best_value == pytest.approx(5.0)
        assert result.first_hops == frozenset({1})
        assert view.direct_link_value(4, bandwidth) == pytest.approx(3.0)

    def test_u_is_unaware_of_the_v8_v9_link(self, view):
        assert not view.has_link(8, 9)
        assert figure2_network().has_link(8, 9)

    def test_localized_view_misses_the_global_optimum_to_v9(self, view, bandwidth):
        local = first_hops_to(view, 9, bandwidth)
        global_optimum = optimal_route(figure2_network(), FIGURE2_OWNER, 9, bandwidth)
        assert local.best_value == pytest.approx(3.0)
        assert global_optimum.value == pytest.approx(5.0)
        assert global_optimum.path == (FIGURE2_OWNER, 6, 8, 9)

    def test_final_ans_is_v1_v6_v7(self, view, bandwidth):
        result = FnbpSelector().select(view, bandwidth)
        assert result.selected == frozenset({1, 6, 7})

    def test_v11_is_covered_through_v6_rather_than_v2(self, view, bandwidth):
        result = FnbpSelector().explain(view, bandwidth)
        assert covering_relays(result)[11] == 6

    def test_v10_and_v5_need_no_extra_selection_once_v1_is_chosen(self, view, bandwidth):
        result = FnbpSelector().explain(view, bandwidth)
        relays = covering_relays(result)
        assert relays[5] == 1
        assert relays[10] == 1


class TestFigure4:
    def test_mutual_deferral_without_the_guard(self, bandwidth):
        network = figure4_network()
        selector = FnbpSelector(loop_guard="off")
        relays_a = covering_relays(selector.explain(LocalView.from_network(network, A), bandwidth))
        relays_b = covering_relays(selector.explain(LocalView.from_network(network, B), bandwidth))
        assert relays_a[E] == B and relays_b[E] == A

    def test_d_selected_by_nobody_without_the_guard(self, bandwidth):
        network = figure4_network()
        selector = FnbpSelector(loop_guard="off")
        for node in (A, B, C, E):
            result = selector.select(LocalView.from_network(network, node), bandwidth)
            if node == E:
                continue  # E's only neighbor is D, selected for reaching A/B, not affected by the loop
            assert D not in result.selected

    def test_guard_makes_a_select_d(self, bandwidth):
        network = figure4_network()
        result = FnbpSelector().explain(LocalView.from_network(network, A), bandwidth)
        assert D in result.selected
        assert covering_relays(result)[E] == D

    def test_the_limiting_last_link_is_the_cause(self, bandwidth):
        """Raising the (D, E) bandwidth above the others removes the pathology entirely."""
        network = figure4_network()
        network.set_link_weight(D, E, "bandwidth", 9.0)
        selector = FnbpSelector(loop_guard="off")
        result_a = selector.explain(LocalView.from_network(network, A), bandwidth)
        assert covering_relays(result_a)[E] == D


class TestFigure5:
    def test_selresult_triplet_is_reported_for_the_same_owner(self):
        from repro.papergraphs import figure5_selections
        from repro.papergraphs.figure5 import FIGURE5_OWNER

        selections = figure5_selections()
        assert set(selections) == {"olsr-mpr", "topology-filtering", "fnbp"}
        assert all(result.owner == FIGURE5_OWNER for result in selections.values())

    def test_all_selections_are_one_hop_subsets(self):
        from repro.papergraphs.figure5 import FIGURE5_OWNER

        network = figure5_network()
        neighborhood = network.neighbors(FIGURE5_OWNER)
        for result in figure5_selections().values():
            assert set(result.selected) <= neighborhood

    def test_fnbp_advertises_strictly_fewer_neighbors_than_the_baselines(self):
        selections = figure5_selections()
        assert len(selections["fnbp"].selected) < len(selections["topology-filtering"].selected)
        assert len(selections["fnbp"].selected) < len(selections["olsr-mpr"].selected)

    def test_topology_filtering_advertises_every_tied_relay_but_fnbp_keeps_one(self):
        """Fringe node 5 is reachable through relays 1 and 2 at identical quality: the
        filtering baseline advertises both, FNBP keeps a single one (the paper's set-size
        argument)."""
        selections = figure5_selections()
        filtering = set(selections["topology-filtering"].selected)
        fnbp = set(selections["fnbp"].selected)
        assert {1, 2} <= filtering
        assert len(fnbp & {1, 2}) == 1

    def test_fnbp_covers_node_8_through_a_longer_path_instead_of_advertising_relay_4(self, bandwidth):
        selections = figure5_selections()
        assert 4 in selections["topology-filtering"].selected
        assert 4 not in selections["fnbp"].selected
        relays = covering_relays(selections["fnbp"])
        assert relays[8] in selections["fnbp"].selected

    def test_every_two_hop_neighbor_has_an_adjacent_relay_or_longer_covered_path(self, bandwidth):
        from repro.papergraphs.figure5 import FIGURE5_OWNER

        network = figure5_network()
        view = LocalView.from_network(network, FIGURE5_OWNER)
        for name, result in figure5_selections().items():
            if name == "fnbp":
                relays = covering_relays(result)
                assert set(view.two_hop) <= set(relays)
                continue
            for target in view.two_hop:
                assert view.common_relays(target) & set(result.selected), (
                    f"{name} leaves {target} uncovered"
                )
