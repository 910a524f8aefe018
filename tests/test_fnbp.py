"""Unit tests of the FNBP selector (Algorithms 1 and 2) on hand-built topologies."""

from __future__ import annotations

import pytest

from repro.core import FnbpSelector, LoopGuardPolicy, covering_relays, make_selector
from repro.localview import LocalView
from repro.metrics import BandwidthMetric, DelayMetric
from repro.papergraphs import FIGURE2_OWNER, figure2_network
from repro.topology import Network


def select(network, owner, metric, **kwargs):
    view = LocalView.from_network(network, owner)
    return FnbpSelector(**kwargs).select(view, metric)


def explain(network, owner, metric, **kwargs):
    view = LocalView.from_network(network, owner)
    return FnbpSelector(**kwargs).explain(view, metric)


class TestStepOne:
    def test_no_selection_when_every_direct_link_is_optimal(self, bandwidth):
        network = Network.from_links(
            {(0, 1): {"bandwidth": 5.0}, (0, 2): {"bandwidth": 5.0}, (1, 2): {"bandwidth": 1.0}}
        )
        result = explain(network, 0, bandwidth)
        assert result.selected == frozenset()
        reasons = {decision.reason for decision in result.decisions}
        assert reasons == {"direct-link-optimal"}

    def test_relay_selected_when_direct_link_is_weak(self, diamond_network, bandwidth):
        result = select(diamond_network, 0, bandwidth)
        # Reaching 3 directly (bandwidth 1) is worse than 0-1-3 (bandwidth 4): select 1.
        assert 1 in result.selected
        assert 2 not in result.selected

    def test_relay_selected_for_delay_metric(self, diamond_network, delay):
        result = select(diamond_network, 0, delay)
        # Reaching 3 directly costs 10; 0-2-3 costs 2: select 2.
        assert 2 in result.selected
        assert 1 not in result.selected

    def test_existing_ans_member_reused_for_other_one_hop_targets(self, bandwidth):
        # Node 0 has two weak direct links (to 2 and 3) both best reached through 1.
        network = Network.from_links(
            {
                (0, 1): {"bandwidth": 9.0},
                (0, 2): {"bandwidth": 1.0},
                (0, 3): {"bandwidth": 1.0},
                (1, 2): {"bandwidth": 8.0},
                (1, 3): {"bandwidth": 8.0},
            }
        )
        result = select(network, 0, bandwidth)
        assert result.selected == frozenset({1})

    def test_step_one_disabled_by_cover_one_hop_flag(self, line_network, bandwidth):
        # Owner 1 of the line 0-1-2-3 has one-hop neighbors {0, 2} and two-hop neighbor 3.
        assert LocalView.from_network(line_network, 1).two_hop == {3}
        without_step_one = explain(line_network, 1, bandwidth, cover_one_hop=False)
        assert {decision.target for decision in without_step_one.decisions} == {3}
        with_step_one = explain(line_network, 1, bandwidth)
        assert {decision.target for decision in with_step_one.decisions} == {0, 2, 3}


class TestStepTwo:
    def test_two_hop_neighbor_selects_first_node_on_best_path(self, line_network, bandwidth):
        result = select(line_network, 0, bandwidth)
        # 2 is a two-hop neighbor reachable only through 1.
        assert result.selected == frozenset({1})

    def test_tie_between_first_hops_broken_by_best_direct_link_then_id(self, bandwidth):
        network = Network.from_links(
            {
                (0, 1): {"bandwidth": 3.0},
                (0, 2): {"bandwidth": 5.0},
                (1, 9): {"bandwidth": 5.0},
                (2, 9): {"bandwidth": 5.0},
            }
        )
        # Both relays give the 2-hop neighbor 9 a bottleneck of 3 vs 5; best is via 2 (5).
        result = select(network, 0, bandwidth)
        assert 2 in result.selected

    def test_equal_quality_relays_prefer_smaller_id(self, bandwidth):
        network = Network.from_links(
            {
                (0, 4): {"bandwidth": 5.0},
                (0, 2): {"bandwidth": 5.0},
                (4, 9): {"bandwidth": 5.0},
                (2, 9): {"bandwidth": 5.0},
            }
        )
        result = select(network, 0, bandwidth)
        assert result.selected == frozenset({2})

    def test_no_duplicate_selection_when_target_already_covered(self, bandwidth):
        network = Network.from_links(
            {
                (0, 1): {"bandwidth": 9.0},
                (1, 5): {"bandwidth": 9.0},
                (1, 6): {"bandwidth": 9.0},
                (0, 2): {"bandwidth": 1.0},
                (2, 6): {"bandwidth": 1.0},
            }
        )
        result = select(network, 0, bandwidth)
        assert result.selected == frozenset({1})


class TestPaperExample:
    def test_figure2_final_ans(self, bandwidth):
        network = figure2_network()
        result = select(network, FIGURE2_OWNER, bandwidth)
        assert result.selected == frozenset({1, 6, 7})

    def test_figure2_v11_is_covered_by_v6_not_v2(self, bandwidth):
        """The paper: u picks v6 rather than v2 around v11 because link (u, v6) is better."""
        network = figure2_network()
        result = explain(network, FIGURE2_OWNER, bandwidth)
        relays = covering_relays(result)
        assert relays[11] == 6
        assert 2 not in result.selected

    def test_figure2_covering_relays_are_consistent(self, bandwidth):
        network = figure2_network()
        result = explain(network, FIGURE2_OWNER, bandwidth)
        relays = covering_relays(result)
        view = LocalView.from_network(network, FIGURE2_OWNER)
        assert set(relays) == set(view.known_targets())
        for target, relay in relays.items():
            assert relay == target or relay in result.selected

    def test_figure2_explain_mentions_selector_and_decisions(self, bandwidth):
        network = figure2_network()
        result = explain(network, FIGURE2_OWNER, bandwidth)
        text = result.explain()
        assert "fnbp" in text
        assert "direct-link-optimal" in text


class TestConfiguration:
    def test_loop_guard_accepts_string_values(self, diamond_network, bandwidth):
        selector = FnbpSelector(loop_guard="off")
        assert selector.loop_guard is LoopGuardPolicy.OFF
        view = LocalView.from_network(diamond_network, 0)
        assert selector.select(view, bandwidth).selector_name == "fnbp"

    def test_registry_exposes_fnbp_variants(self):
        assert isinstance(make_selector("fnbp"), FnbpSelector)
        assert make_selector("fnbp-no-guard").loop_guard is LoopGuardPolicy.OFF
        assert make_selector("fnbp-literal-guard").loop_guard is LoopGuardPolicy.LITERAL
        assert make_selector("fnbp-two-hop-only").cover_one_hop is False

    def test_unknown_selector_name(self):
        with pytest.raises(KeyError):
            make_selector("does-not-exist")

    def test_selection_result_len_and_contains(self, line_network, bandwidth):
        result = select(line_network, 0, bandwidth)
        assert len(result) == 1
        assert 1 in result
        assert 3 not in result

    def test_select_all_runs_at_every_node(self, line_network, bandwidth):
        results = FnbpSelector().select_all(line_network, bandwidth)
        assert set(results) == {0, 1, 2, 3}
        assert all(result.owner == node for node, result in results.items())
