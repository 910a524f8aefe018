"""The coverage record (``LocalView.coverage()``) and the mask routines that select on it.

QOLSR MPR-1/MPR-2, RFC 3626 MPR (``rfc3626_mpr`` and the ``olsr-mpr`` selector) and FNBP's
adjacent-to-target loop guard read one metric-free record per view: the sorted one- and
two-hop neighbours, each one-hop neighbour's cover mask and each two-hop neighbour's
relay mask.  These tests pin

* the mask routines to the set-based routines they replaced (``tests/mpr_oracles.py``),
  ``select`` and ``explain`` with its trace, on drawn tie-heavy networks, the degenerate
  shapes, the 70-spoke hub (masks wider than 64 bits), protocol-table views with stale,
  one-sided and conflicting reports, and networks with a NaN link;
* the record to the view's own set queries on every kind of view, and its cache
  contract (built once, then shared by every reader);
* FNBP's rows to the record's bit orders, which its loop guard relies on.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.fnbp import FnbpSelector
from repro.core.selection import make_selector
from repro.localview import LocalView, NetworkGraph
from repro.localview.view import Coverage, mask_members
from repro.metrics import BandwidthMetric, DelayMetric
from repro.olsr.mpr import coverage_map, rfc3626_mpr
from tests.mpr_oracles import QOLSR_VARIANTS, coverage_map_sets, qolsr_sets, rfc3626_mpr_sets
from tests.test_differential_solvers import _degenerate_networks, _wide_networks, tie_heavy_networks
from tests.test_protocol_properties import protocol_tables
from tests.test_selection_traces import golden_networks

METRICS = (BandwidthMetric(), DelayMetric())


@pytest.fixture(scope="module")
def integer_network():
    """A 30-node network with integer weights, so first-hop ties and loop guards are common."""
    return golden_networks()["integer"]


def _views(network) -> list:
    """Every owner's view, with its own map and attached to a shared CSR."""
    attached = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))
    return [*LocalView.all_from_network(network).values(), *attached.values()]


def _assert_masks_match_sets(views) -> None:
    """Each mask routine equals its set-based oracle on every view, traces included."""
    for view in views:
        where = view.owner
        assert coverage_map(view) == coverage_map_sets(view), where
        expected_mpr = rfc3626_mpr_sets(view)
        assert rfc3626_mpr(view) == expected_mpr, where
        for metric in METRICS:
            olsr = make_selector("olsr-mpr")
            assert olsr.select(view, metric).selected == expected_mpr, where
            (decision,) = olsr.explain(view, metric).decisions
            assert decision.detail == (("selected", tuple(sorted(expected_mpr))),), where
            for name in QOLSR_VARIANTS:
                selector = make_selector(name)
                trace = []
                expected = qolsr_sets(view, metric, name, trace)
                assert selector.select(view, metric).selected == expected, (where, name)
                explained = selector.explain(view, metric)
                assert explained.selected == expected, (where, name)
                assert list(explained.decisions) == trace, (where, name)


def _with_nan_link(network, link):
    """``network`` with one link's bandwidth and delay replaced by NaN."""
    from repro.topology.network import Network

    links = {}
    for u, v in network.links():
        weights = network.link_attributes(u, v)
        if (u, v) == link:
            weights = {"bandwidth": math.nan, "delay": math.nan}
        links[(u, v)] = weights
    return Network.from_links(links)


@st.composite
def nan_linked_networks(draw):
    """A drawn tie-heavy network with a NaN link, so some owner's direct link is NaN and
    the QOLSR phase-two keys stop being totally ordered."""
    network = draw(tie_heavy_networks())
    links = sorted(network.links())
    if not links:
        return network
    return _with_nan_link(network, draw(st.sampled_from(links)))


class TestMasksMatchTheSetRoutines:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(network=tie_heavy_networks())
    def test_on_generated_tie_heavy_networks(self, network):
        _assert_masks_match_sets(_views(network))

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(network=nan_linked_networks())
    def test_on_generated_networks_with_a_nan_link(self, network):
        _assert_masks_match_sets(_views(network))

    @pytest.mark.parametrize("shape", sorted(_degenerate_networks()) + sorted(_wide_networks()))
    def test_on_degenerate_and_wide_shapes(self, shape):
        network = {**_degenerate_networks(), **_wide_networks()}[shape]
        _assert_masks_match_sets(_views(network))

    def test_the_wide_shape_needs_more_than_64_bits(self):
        view = LocalView.from_network(_wide_networks()["hub-of-70"], 0)
        coverage = view.coverage()
        assert len(coverage.hops) == 70 and len(coverage.two_hops) == 70
        assert max(coverage.covers).bit_length() > 64
        assert max(coverage.relays).bit_length() > 64

    def test_a_nan_direct_link_decides_by_scan_order(self):
        """With a NaN direct link, QOLSR's ``min`` keeps whichever candidate it meets
        first, so the mask routine must scan ``view.one_hop`` in the same order, which
        here is not identifier order."""
        from repro.topology.network import Network

        # Owner 0 reaches the two-hop neighbours 3 and 4 through 9 or through 1 (NaN).
        network = Network.from_links(
            {
                (0, 9): {"bandwidth": 3.0, "delay": 3.0},
                (0, 1): {"bandwidth": math.nan, "delay": math.nan},
                (1, 3): {"bandwidth": 1.0, "delay": 1.0},
                (9, 3): {"bandwidth": 1.0, "delay": 1.0},
                (1, 4): {"bandwidth": 1.0, "delay": 1.0},
                (9, 4): {"bandwidth": 1.0, "delay": 1.0},
            }
        )
        view = LocalView.from_network(network, 0)
        assert list(view.one_hop) == [9, 1]
        for metric in METRICS:
            for name in QOLSR_VARIANTS:
                expected = qolsr_sets(view, metric, name)
                assert expected == {9}, name
                assert make_selector(name).select(view, metric).selected == expected, name

    @settings(max_examples=150, deadline=None)
    @given(tables=protocol_tables())
    def test_on_protocol_table_views(self, tables):
        """Views built from protocol tables: stale rows from non-neighbours, links only
        one endpoint reports, and links both endpoints report with different weights."""
        _assert_masks_match_sets([LocalView.from_tables(*tables)])


class TestTheRecord:
    @pytest.mark.parametrize("kind", ["attached", "own-map", "from-tables"])
    def test_masks_decode_to_the_view_queries(self, kind, integer_network):
        network = integer_network
        if kind == "from-tables":
            views = []
            for owner in network.nodes():
                rows = network.adjacency
                neighbor_links = {v: dict(weights) for v, weights in rows[owner].items()}
                two_hop_links = {
                    v: {w: dict(weights) for w, weights in rows[v].items()} for v in neighbor_links
                }
                views.append(LocalView.from_tables(owner, neighbor_links, two_hop_links))
        elif kind == "attached":
            ng = NetworkGraph.from_network(network)
            views = list(LocalView.all_from_network(network, network_graph=ng).values())
        else:
            views = list(LocalView.all_from_network(network).values())
        assert any(view.two_hop for view in views)
        for view in views:
            coverage = view.coverage()
            assert coverage.hops == sorted(view.one_hop)
            assert coverage.two_hops == sorted(view.two_hop)
            for j, target in enumerate(coverage.two_hops):
                relays = set(mask_members(coverage.hops, coverage.relays[j]))
                assert relays == view.common_relays(target), (view.owner, target)
            for i, hop in enumerate(coverage.hops):
                covered = set(mask_members(coverage.two_hops, coverage.covers[i]))
                assert covered == view.neighbors_of(hop) & view.two_hop, (view.owner, hop)

    def test_built_once_and_shared_by_its_readers(self, integer_network, monkeypatch):
        network = integer_network
        owner = max(network.nodes(), key=network.degree)
        ng = NetworkGraph.from_network(network)
        view = LocalView.all_from_network(network, network_graph=ng)[owner]
        builds = []
        build = Coverage.of.__func__

        def counting_of(cls, *args):
            builds.append(args)
            return build(cls, *args)

        monkeypatch.setattr(Coverage, "of", classmethod(counting_of))
        record = view.coverage()
        assert view.coverage() is record
        for metric in METRICS:
            make_selector("qolsr-mpr2").select(view, metric)
            make_selector("fnbp").select(view, metric)
        assert rfc3626_mpr(view) == rfc3626_mpr_sets(view)
        assert view.coverage() is record
        assert len(builds) == 1


class TestFnbpRowsFollowTheRecord:
    @pytest.mark.parametrize("primed", [False, True], ids=["scalar", "primed"])
    def test_every_guard_reads_its_target_relays(self, monkeypatch, primed, integer_network):
        """FNBP's rows list the one-hop neighbours and the two-hop targets in the record's
        orders, so the loop guard's index into the record names the row's target."""
        guard = FnbpSelector._loop_guard
        calls = []

        def spy(self, view, rows, k, ans, prefer):
            coverage = view.coverage()
            degree = len(rows.hops)
            assert rows.hops == coverage.hops
            assert rows.targets[degree:] == coverage.two_hops
            calls.append(rows.targets[k])
            return guard(self, view, rows, k, ans, prefer)

        monkeypatch.setattr(FnbpSelector, "_loop_guard", spy)
        network = integer_network
        selector = make_selector("fnbp")
        for metric in METRICS:
            if primed:
                views = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))
                selector.prime(list(views.values()), metric)
            else:
                views = LocalView.all_from_network(network)
            for view in views.values():
                selector.select(view, metric)
        assert calls
