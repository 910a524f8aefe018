"""Reading link attributes must not put a graph into a reference cycle.

networkx caches an ``EdgeView`` on a graph the first time ``graph.edges`` is read, and the
view points back at the graph.  A dropped graph in that cycle waits for the cyclic garbage
collector, so the short-lived graphs of the selection and routing hot paths (detached and
``from_tables`` views, the graphs attached views build on demand, RNG-reduced copies,
routing knowledge graphs) would pile up between collections.  Each check runs with the collector disabled and requires that no new
``EdgeView`` outlives the call.
"""

from __future__ import annotations

import gc

import pytest
from networkx.classes.reportviews import EdgeView

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
        selector.select(view, metric)  # unprimed: the scalar paths build view.graph
        view.graph  # built on demand at the latest here, whatever the selector read

    assert _edge_views_left_by(select) == 0


@pytest.mark.parametrize("metric", METRICS, ids=lambda metric: metric.name)
def test_qos_rng_reduce(metric):
    network = _grid(metric)

    def reduce() -> None:
        qos_rng_reduce(LocalView.from_network(network, OWNER).graph, metric)

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
