"""The selection path builds no networkx graph, and the routing path leaks none into cycles.

Selection reads each view's link map: a protocol node re-selecting from its tables, or
topology filtering on an unprimed attached view, must construct no ``networkx.Graph``
(counted below).  The routing path still builds networkx graphs (routing knowledge graphs,
the advertised topology), and ``view.graph`` is a networkx adapter for callers outside the
library.  networkx caches an ``EdgeView`` on a graph the first time ``graph.edges`` is
read, and the view points back at the graph.  A dropped graph in that cycle waits for the
cyclic garbage collector, so short-lived graphs would pile up between collections.  Each
cycle check runs with the collector disabled and requires that no new ``EdgeView``
outlives the call.
"""

from __future__ import annotations

import gc

import networkx as nx
import pytest
from networkx.classes.reportviews import EdgeView

from repro.baselines.topology_filtering import TopologyFilteringSelector
from repro.core.selection import make_selector
from repro.localview import LocalView, NetworkGraph
from repro.localview.rng import qos_rng_reduce
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.protocol import ProtocolSimulator
from repro.registry import SELECTORS
from repro.topology import GridNetworkGenerator

METRICS = (BandwidthMetric(), DelayMetric())
OWNER = 5


def _grid(metric):
    assigner = UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=3)
    return GridNetworkGenerator(
        rows=4, columns=4, spacing=80.0, radius=120.0, weight_assigners=(assigner,)
    ).generate()


def _edge_views_left_by(action) -> int:
    """How many ``EdgeView`` objects ``action`` leaves behind, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(obj, EdgeView) for obj in gc.get_objects())
        action()
        return sum(isinstance(obj, EdgeView) for obj in gc.get_objects()) - before
    finally:
        gc.enable()


def _graphs_built_by(action, monkeypatch) -> int:
    """How many ``networkx.Graph`` objects ``action`` constructs."""
    built = []
    init = nx.Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(nx.Graph, "__init__", counting_init)
        action()
    return len(built)


@pytest.mark.parametrize("selector_name", SELECTORS.names())
def test_protocol_reselection_builds_no_graph(selector_name, monkeypatch):
    metric = BandwidthMetric()
    simulation = ProtocolSimulator(_grid(metric), metric, selector_name=selector_name, seed=1)
    simulation.run_until(12.0)
    node = simulation.nodes[OWNER]
    assert node.local_view().two_hop  # the tables describe a two-hop neighbourhood
    node._selection_memo = None  # recompute, not a memo hit
    assert _graphs_built_by(node.current_selection, monkeypatch) == 0
    assert node._selection_memo is not None


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
def test_scalar_topology_filtering_builds_no_graph(metric, monkeypatch):
    network = _grid(metric)
    view = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))[OWNER]
    selector = TopologyFilteringSelector()
    assert _graphs_built_by(lambda: selector.select(view, metric), monkeypatch) == 0
    assert view._graph is None


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
@pytest.mark.parametrize("selector_name", SELECTORS.names())
def test_select_on_a_detached_view(selector_name, metric):
    network = _grid(metric)
    selector = make_selector(selector_name)

    def select() -> None:
        selector.select(LocalView.from_network(network, OWNER), metric)

    assert _edge_views_left_by(select) == 0


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
@pytest.mark.parametrize("selector_name", SELECTORS.names())
def test_select_on_an_attached_view(selector_name, metric):
    network = _grid(metric)
    selector = make_selector(selector_name)

    def select() -> None:
        ng = NetworkGraph.from_network(network)
        view = LocalView.all_from_network(network, network_graph=ng)[OWNER]
        selector.select(view, metric)  # unprimed: the scalar paths derive view.links
        view.graph  # the networkx adapter, built on demand here

    assert _edge_views_left_by(select) == 0


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
def test_qos_rng_reduce(metric):
    network = _grid(metric)

    def reduce() -> None:
        qos_rng_reduce(LocalView.from_network(network, OWNER).links, metric)

    assert _edge_views_left_by(reduce) == 0


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
def test_routing_table_recompute(metric):
    simulation = ProtocolSimulator(_grid(metric), metric, seed=1)
    simulation.run_until(12.0)
    node = simulation.nodes[OWNER]

    def recompute_and_read() -> None:
        node.recompute_routes()
        node.routing_table.destinations()  # the solves run when routes are read

    assert _edge_views_left_by(recompute_and_read) == 0
    assert len(node.routing_table) > 0
