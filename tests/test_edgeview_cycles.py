"""The selection and routing paths build no networkx graph and leave no reference cycle.

networkx caches an ``EdgeView`` on a graph the first time ``graph.edges`` is read, and the
view points back at the graph, so a dropped graph waited in that cycle for the cyclic
garbage collector.  The library now holds every graph as a link map and imports no
networkx (``tests/test_runtime_imports.py`` checks the imports in a subprocess with the
package blocked, over smoke-size sweeps).  These checks run in process, for every selector
and metric, on both kinds of view, on protocol re-selection and on routing-table
recomputes: each action must construct no ``networkx`` graph (a function-level import on a
path the smoke sweeps skip would) and, with the collector disabled, must leave no object
in an unreachable reference cycle -- an ``EdgeView`` cycle or any other.
"""

from __future__ import annotations

import gc

import networkx as nx
import pytest

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


def _cycles_left_by(action) -> int:
    """How many objects ``action`` leaves in unreachable cycles, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


def _graphs_built_by(action, monkeypatch) -> int:
    """How many ``networkx`` graphs (``Graph``, ``DiGraph`` and their subclasses)
    ``action`` constructs."""
    built = []

    def counting(init):
        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        return counting_init

    with monkeypatch.context() as patch:
        for cls in (nx.Graph, nx.DiGraph):
            patch.setattr(cls, "__init__", counting(cls.__init__))
        action()
    return len(built)


def _clean(action, monkeypatch) -> tuple:
    """(graphs built, objects left in cycles) by one run of ``action`` each."""
    return _graphs_built_by(action, monkeypatch), _cycles_left_by(action)


@pytest.mark.parametrize("selector_name", SELECTORS.names())
def test_protocol_reselection_builds_no_graph(selector_name, monkeypatch):
    metric = BandwidthMetric()
    simulation = ProtocolSimulator(_grid(metric), metric, selector_name=selector_name, seed=1)
    simulation.run_until(12.0)
    node = simulation.nodes[OWNER]
    assert node.local_view().two_hop  # the tables describe a two-hop neighbourhood

    def reselect() -> None:
        node._selection_memo = None  # recompute, not a memo hit
        node.current_selection()

    assert _clean(reselect, monkeypatch) == (0, 0)
    assert node._selection_memo is not None


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
def test_scalar_topology_filtering_builds_no_graph(metric, monkeypatch):
    network = _grid(metric)
    view = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))[OWNER]
    selector = TopologyFilteringSelector()
    assert _clean(lambda: selector.select(view, metric), monkeypatch) == (0, 0)
    assert not hasattr(view, "graph") and not hasattr(view, "_graph")  # no adapter to build


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
@pytest.mark.parametrize("selector_name", SELECTORS.names())
def test_select_on_a_detached_view(selector_name, metric, monkeypatch):
    network = _grid(metric)
    selector = make_selector(selector_name)

    def select() -> None:
        selector.select(LocalView.from_network(network, OWNER), metric)

    assert _clean(select, monkeypatch) == (0, 0)


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
@pytest.mark.parametrize("selector_name", SELECTORS.names())
def test_select_on_an_attached_view(selector_name, metric, monkeypatch):
    network = _grid(metric)
    selector = make_selector(selector_name)

    def select() -> None:
        ng = NetworkGraph.from_network(network)
        view = LocalView.all_from_network(network, network_graph=ng)[OWNER]
        selector.select(view, metric)  # unprimed: the scalar paths derive view.links
        view.links

    assert _clean(select, monkeypatch) == (0, 0)


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
def test_qos_rng_reduce(metric, monkeypatch):
    network = _grid(metric)

    def reduce() -> None:
        qos_rng_reduce(LocalView.from_network(network, OWNER).links, metric)

    assert _clean(reduce, monkeypatch) == (0, 0)


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
def test_routing_table_recompute(metric, monkeypatch):
    simulation = ProtocolSimulator(_grid(metric), metric, seed=1)
    simulation.run_until(12.0)
    node = simulation.nodes[OWNER]

    def recompute_and_read() -> None:
        node.recompute_routes()
        node.routing_table.destinations()  # the solves run when routes are read

    assert _clean(recompute_and_read, monkeypatch) == (0, 0)
    assert len(node.routing_table) > 0
