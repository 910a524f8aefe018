"""Tests for the Network model: links, neighborhoods, connectivity, weight handling, and
its orders held to the networkx-backed model it replaced (``tests/nx_oracles.py``)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.mobility import RandomWaypointGenerator
from repro.topology import FieldSpec, Network
from tests.nx_oracles import NxNetwork


class TestConstruction:
    def test_add_node_and_position(self):
        network = Network()
        network.add_node(1, (10.0, 20.0))
        assert 1 in network
        assert network.position(1) == (10.0, 20.0)

    def test_add_link_creates_missing_endpoints(self):
        network = Network()
        network.add_link(1, 2, bandwidth=3.0)
        assert network.has_link(1, 2)
        assert network.has_link(2, 1)
        assert len(network) == 2

    def test_self_links_rejected(self):
        network = Network()
        with pytest.raises(ValueError):
            network.add_link(1, 1, bandwidth=3.0)

    def test_from_links_with_weights_and_positions(self):
        network = Network.from_links(
            {(1, 2): {"bandwidth": 4.0}, (2, 3): {"bandwidth": 2.0}},
            positions={1: (0, 0), 2: (1, 1), 3: (2, 2)},
        )
        assert network.link_value(1, 2, BandwidthMetric()) == 4.0
        assert network.position(3) == (2.0, 2.0)

    def test_from_links_weightless(self):
        network = Network.from_links([(1, 2), (2, 3)])
        assert network.number_of_links() == 2


class TestWeights:
    def test_link_value_per_metric(self, line_network, bandwidth, delay):
        assert line_network.link_value(0, 1, bandwidth) == 5.0
        assert line_network.link_value(0, 1, delay) == 1.0

    def test_link_attributes_returns_copy(self, line_network):
        attributes = line_network.link_attributes(0, 1)
        attributes["bandwidth"] = 99.0
        assert line_network.link_value(0, 1, BandwidthMetric()) == 5.0

    def test_missing_link_raises(self, line_network):
        with pytest.raises(KeyError):
            line_network.link_attributes(0, 3)

    def test_set_link_weight(self, line_network, bandwidth):
        line_network.set_link_weight(0, 1, "bandwidth", 7.5)
        assert line_network.link_value(0, 1, bandwidth) == 7.5

    def test_set_link_weight_on_missing_link(self, line_network):
        with pytest.raises(KeyError):
            line_network.set_link_weight(0, 3, "bandwidth", 1.0)

    def test_remove_link_keeps_the_endpoints(self, line_network):
        line_network.remove_link(2, 1)
        assert not line_network.has_link(1, 2) and not line_network.has_link(2, 1)
        assert line_network.neighbors(1) == {0} and line_network.neighbors(2) == {3}
        assert len(line_network) == 4 and line_network.number_of_links() == 2

    def test_remove_missing_link_raises(self, line_network):
        with pytest.raises(KeyError, match="no link between 0 and 3"):
            line_network.remove_link(0, 3)
        with pytest.raises(KeyError, match="no link between 0 and 9"):
            line_network.remove_link(0, 9)

    def test_readding_a_link_updates_its_one_dict_in_place(self, line_network):
        shared = line_network.adjacency[0][1]
        line_network.add_link(1, 0, delay=7.0)
        assert line_network.adjacency[0][1] is shared is line_network.adjacency[1][0]
        assert shared == {"bandwidth": 5.0, "delay": 7.0}
        assert list(line_network.adjacency[1]) == [0, 2]  # the link kept its place

    def test_apply_weight_assigner_covers_all_links(self, line_network, delay):
        line_network.apply_weight_assigner(
            UniformWeightAssigner(metric=delay, low=2.0, high=3.0, seed=5)
        )
        line_network.validate_metric_coverage(delay)
        for u, v in line_network.links():
            assert 2.0 <= line_network.link_value(u, v, delay) <= 3.0

    def test_validate_metric_coverage_detects_missing_weight(self, bandwidth):
        network = Network.from_links({(1, 2): {"delay": 1.0}})
        with pytest.raises(KeyError):
            network.validate_metric_coverage(bandwidth)


class TestNeighborhoods:
    def test_neighbors(self, line_network):
        assert line_network.neighbors(1) == {0, 2}

    def test_two_hop_neighbors_exclude_self_and_one_hop(self, line_network):
        assert line_network.two_hop_neighbors(0) == {2}
        assert line_network.two_hop_neighbors(1) == {3}

    def test_degree_and_average_degree(self, line_network):
        assert line_network.degree(0) == 1
        assert line_network.degree(1) == 2
        assert line_network.average_degree() == pytest.approx(2 * 3 / 4)

    def test_distance(self, line_network):
        assert line_network.distance(0, 2) == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "query",
        ["neighbors", "two_hop_neighbors", "degree", "position", "distance"],
    )
    def test_unknown_nodes_raise_key_error(self, line_network, query):
        method = getattr(line_network, query)
        with pytest.raises(KeyError) as raised:
            method(0, 9) if query == "distance" else method(9)
        assert raised.value.args == (9,)

    def test_add_node_moves_an_existing_node(self, line_network):
        line_network.add_node(1, (7.0, 8.0))
        assert line_network.position(1) == (7.0, 8.0)
        assert line_network.neighbors(1) == {0, 2}
        assert list(line_network.adjacency) == [0, 1, 2, 3]


class TestConnectivity:
    def test_connected_detection(self, line_network):
        assert line_network.is_connected()
        line_network.add_node(99, (500.0, 500.0))
        assert not line_network.is_connected()

    def test_largest_component(self, line_network):
        line_network.add_node(99, (500.0, 500.0))
        line_network.add_link(99, 98, bandwidth=1.0)
        largest = line_network.largest_component()
        assert set(largest.nodes()) == {0, 1, 2, 3}

    def test_subnetwork_preserves_weights_and_positions(self, line_network, bandwidth):
        sub = line_network.subnetwork([0, 1, 2])
        assert sub.link_value(1, 2, bandwidth) == 3.0
        assert sub.position(2) == line_network.position(2)
        assert not sub.has_link(2, 3)

    def test_copy_is_independent(self, line_network, bandwidth):
        clone = line_network.copy()
        clone.set_link_weight(0, 1, "bandwidth", 42.0)
        assert line_network.link_value(0, 1, bandwidth) == 5.0

    def test_describe_mentions_counts(self, line_network):
        text = line_network.describe()
        assert "nodes=4" in text and "links=3" in text

    def test_empty_network_properties(self):
        network = Network()
        assert len(network) == 0
        assert network.average_degree() == 0.0
        assert not network.is_connected()
        assert network.largest_component().nodes() == []


# ---------------------------------------------------------------------- the networkx contract

WEIGHTS = st.dictionaries(st.sampled_from(["bandwidth", "delay"]), st.floats(0.5, 10.0), max_size=2)
POSITIONS = st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 500.0))


@st.composite
def mutation_sequences(draw):
    """Node ids up to 10^4 (so set iteration is not sorted) and a sequence of mutations.

    ``link`` draws both endpoints from the pool (a repeat when the link exists, a new
    endpoint when a node does not); ``relink``, ``reweight`` and ``remove`` address the
    ``k``-th existing link, modulo the link count at that point.
    """
    pool = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=40, unique=True))
    node = st.sampled_from(pool)
    index = st.integers(0, 10_000)
    metric_name = st.sampled_from(["bandwidth", "delay"])
    operation = st.one_of(
        st.tuples(st.just("node"), node, POSITIONS),
        st.tuples(st.just("link"), node, node, WEIGHTS),
        st.tuples(st.just("link"), node, node, WEIGHTS),  # twice: links grow components
        st.tuples(st.just("relink"), index, st.booleans(), WEIGHTS),
        st.tuples(st.just("reweight"), index, metric_name, st.floats(0.5, 10.0)),
        st.tuples(st.just("remove"), index, st.booleans()),
    )
    operations = draw(st.lists(operation, min_size=30, max_size=150))
    subset = draw(st.lists(node, max_size=len(pool)))
    return operations, subset


def _apply(operation, network: Network, reference: NxNetwork) -> None:
    kind = operation[0]
    if kind == "node":
        _, node, position = operation
        network.add_node(node, position)
        reference.add_node(node, position)
    elif kind == "link":
        _, u, v, weights = operation
        if u == v:
            with pytest.raises(ValueError):
                network.add_link(u, v, **weights)
            return
        network.add_link(u, v, **weights)
        reference.add_link(u, v, **weights)
    else:
        links = reference.links()
        if not links:
            return
        u, v = links[operation[1] % len(links)]
        if kind == "relink":
            _, _, flip, weights = operation
            if flip:
                u, v = v, u
            network.add_link(u, v, **weights)
            reference.add_link(u, v, **weights)
        elif kind == "reweight":
            _, _, name, value = operation
            network.set_link_weight(u, v, name, value)
            reference.set_link_weight(u, v, name, value)
        else:
            if operation[2]:
                u, v = v, u
            network.remove_link(u, v)
            reference.remove_link(u, v)


def _layout(network: Network):
    """Node order, then each row in order with its attributes."""
    return [(node, list(row.items())) for node, row in network.adjacency.items()]


def _reference_layout(reference: NxNetwork):
    return [(node, list(row.items())) for node, row in reference.graph.adj.items()]


def _assert_same_copy(copied: Network, expected: NxNetwork) -> None:
    assert _layout(copied) == _reference_layout(expected)
    assert list(copied.positions().items()) == list(expected.positions().items())


def _assert_exact_copy(copied: Network, original: Network) -> None:
    """The original's node order, rows as lists and positions, on one new dict per link."""
    assert _layout(copied) == _layout(original)
    assert list(copied.positions().items()) == list(original.positions().items())
    for node, row in copied.adjacency.items():
        for other, attributes in row.items():
            assert attributes is not original.adjacency[node][other]
            assert copied.adjacency[other][node] is attributes


@settings(max_examples=150, deadline=None)
@given(drawn=mutation_sequences())
def test_orders_match_the_networkx_model(drawn):
    """Every order a digest can depend on -- nodes, rows, links, components and the node
    order of the subnetworks -- equals the networkx-backed model's, and a copy keeps the
    network's own orders, under any mix of node, link, reweight and removal operations."""
    operations, subset = drawn
    network, reference = Network(), NxNetwork()
    for operation in operations:
        _apply(operation, network, reference)
    assert _layout(network) == _reference_layout(reference)
    for node, row in network.adjacency.items():
        for other, attributes in row.items():
            assert network.adjacency[other][node] is attributes  # one dict per link
    assert network.links() == reference.links()
    assert list(network.positions().items()) == list(reference.positions().items())
    assert network.number_of_links() == reference.graph.number_of_edges()
    components = network.connected_components()
    assert [list(c) for c in components] == [list(c) for c in reference.connected_components()]
    _assert_same_copy(network.largest_component(), reference.largest_component())
    _assert_exact_copy(network.copy(), network)
    _assert_same_copy(network.subnetwork(subset), reference.subnetwork(subset))


def test_copy_of_a_stepped_dynamic_network_keeps_its_orders():
    """Steps remove and re-add links, so rows leave link order; a copy keeps the node
    order and every row as it is, on new attribute dicts, and is independent."""
    dynamic = RandomWaypointGenerator(
        field=FieldSpec(width=300.0, height=300.0, radius=90.0),
        node_count=40,
        seed=5,
        weight_assigners=(UniformWeightAssigner(metric=BandwidthMetric(), low=1.0, high=10.0, seed=5),),
        speed_low=20.0,
        speed_high=40.0,
        pause_high=0.0,
    ).dynamic()
    for _ in range(3):
        dynamic.advance()
    network = dynamic.network
    copied = network.copy()
    _assert_exact_copy(copied, network)

    before = [
        (node, [(other, dict(attributes)) for other, attributes in row.items()])
        for node, row in network.adjacency.items()
    ]
    positions = list(network.positions().items())
    u, v = copied.links()[0]
    copied.set_link_weight(u, v, "bandwidth", 123.0)
    copied.remove_link(*copied.links()[-1])
    copied.add_link(u, 10_000, bandwidth=1.0)
    copied.add_node(v, (-1.0, -1.0))
    assert _layout(network) == before
    assert list(network.positions().items()) == positions
