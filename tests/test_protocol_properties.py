"""Property tests for the protocol simulator's exact fast paths.

Each fast path must give exactly what the code it replaced gave, on generated inputs:

* **Derived draws.**  :class:`~repro.utils.seeding.DerivedDraws` equals
  ``spawn_rng(...).random()`` and ``.uniform()`` for any seed, node ids, ``seq`` and both
  loss-model labels, and a :class:`LossModel` that has already drawn still pickles, and
  compares and hashes equal to a fresh one.
* **Selection memo.**  On random neighbor tables -- conflicting reports of one link,
  HELLOs arriving in random orders, reports that change -- the memoized
  :meth:`OlsrNode.current_selection` equals a fresh selection on
  :meth:`LocalView.from_tables` for every registered selector and ``rfc3626_mpr``, under
  bandwidth and delay.  The case where only the last report of a link changes is pinned
  on its own: a key built from table content alone would miss it.
* **Tables.**  Over random update/expire sequences, the indexed :class:`TopologyTable`
  gives the same ordered ``advertised_links()`` as the dict rebuild it replaced, and the
  expiry bounds and the MPR-selector cache of :class:`NeighborTable` and
  :class:`DuplicateSet` change nothing either.  The references below are those
  rebuilds.
* **Routes on demand.**  On random neighbor and topology tables, every destination's
  :meth:`RoutingTable.entry` equals what the eager per-destination loop it replaced
  computed in ``recompute``; that loop is kept below as the oracle.
"""

from __future__ import annotations

import copy
import math
import pickle
from typing import Dict, Tuple

import networkx as nx
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.selection import make_selector
from repro.localview.compactgraph import CompactGraph
from repro.localview.paths import best_values_from
from repro.localview.view import LocalView
from repro.metrics import BandwidthMetric, DelayMetric
from repro.metrics.ordering import preferred_neighbor
from repro.olsr.duplicate_set import DuplicateSet
from repro.olsr.messages import AdvertisedLink, HelloMessage, LinkReport, Packet, TcMessage
from repro.olsr.mpr import rfc3626_mpr
from repro.olsr.neighbor_table import NeighborTable
from repro.olsr.node import OlsrNode
from repro.olsr.routing_table import RouteEntry, RoutingTable
from repro.olsr.topology_table import TopologyTable
from repro.protocol import LossModel
from repro.registry import SELECTORS
from repro.utils.seeding import DerivedDraws, spawn_rng

METRICS = {"bandwidth": BandwidthMetric(), "delay": DelayMetric()}
VALUES = st.sampled_from([0.5, 1.0, 2.0, 5.0, 10.0])
WEIGHTS = st.builds(lambda b, d: {"bandwidth": b, "delay": d}, VALUES, VALUES)

node_ids = st.integers(min_value=0, max_value=10_000)
seqs = st.integers(min_value=0, max_value=10**9)


# ---------------------------------------------------------------------- derived draws


class TestDerivedDraws:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        src=node_ids,
        dst=node_ids,
        seqs=st.lists(seqs, min_size=1, max_size=3),
        label=st.sampled_from(["loss", "delay"]),
        high=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_draws_equal_spawn_rng(self, seed, src, dst, seqs, label, high):
        draws = DerivedDraws(seed)
        for seq in seqs:  # the second and later draws reuse the cached prefix state
            assert draws.random((label, src, dst), seq) == spawn_rng(seed, label, src, dst, seq).random()
            assert draws.uniform((label, src, dst), seq, 0.0, high) == spawn_rng(
                seed, label, src, dst, seq
            ).uniform(0.0, high)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        src=node_ids,
        dst=node_ids,
        seq=seqs,
        loss_rate=st.floats(min_value=0.0, max_value=0.99),
        jitter=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_loss_model_decisions_are_the_spawn_rng_draws(self, seed, src, dst, seq, loss_rate, jitter):
        model = LossModel(seed=seed, loss_rate=loss_rate, propagation_delay=0.01, delay_jitter=jitter)
        expected_delivery = loss_rate == 0.0 or spawn_rng(seed, "loss", src, dst, seq).random() >= loss_rate
        expected_delay = 0.01 if jitter == 0.0 else 0.01 + spawn_rng(seed, "delay", src, dst, seq).uniform(0.0, jitter)
        assert model.delivered(src, dst, seq) == expected_delivery
        assert model.delay(src, dst, seq) == expected_delay

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        transmissions=st.lists(st.tuples(node_ids, node_ids, seqs), min_size=1, max_size=6),
    )
    def test_a_model_that_has_drawn_pickles_and_equals_a_fresh_one(self, seed, transmissions):
        fields = dict(seed=seed, loss_rate=0.3, propagation_delay=0.002, delay_jitter=0.004)
        model = LossModel(**fields)
        drawn = [(model.delivered(*t), model.delay(*t)) for t in transmissions]
        fresh = LossModel(**fields)
        assert model == fresh and hash(model) == hash(fresh) and repr(model) == repr(fresh)
        for clone in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model), copy.copy(model)):
            assert clone == model and hash(clone) == hash(model)
            assert [(clone.delivered(*t), clone.delay(*t)) for t in transmissions] == drawn


# ---------------------------------------------------------------------- selection memo


def _hello(originator: int, reports: Dict[int, dict], mpr=()) -> HelloMessage:
    return HelloMessage(
        originator=originator,
        sequence_number=0,
        links=tuple(LinkReport(node, weights, is_mpr=node in mpr) for node, weights in reports.items()),
    )


def _deliver(node: OlsrNode, hello: HelloMessage, direct: dict, now: float) -> None:
    node.set_link_weights(hello.originator, direct)
    node.handle_packet(Packet(message=hello, sender=hello.originator), now=now)


def _fresh_selection(node: OlsrNode, selector_name: str, metric) -> Tuple[frozenset, frozenset]:
    table = node.neighbor_table
    view = LocalView.from_tables(node.node_id, table.neighbor_link_table(), table.two_hop_link_table())
    return rfc3626_mpr(view), frozenset(make_selector(selector_name).select(view, metric).selected)


@st.composite
def hello_schedules(draw):
    """Neighbors of node 0, two HELLO versions each, and a random arrival order.

    Reports draw their weights independently, so two neighbors that list each other
    report one link with (usually) different weights, and which report is last depends
    on the arrival order.  Deliveries repeat, so unchanged views recur.
    """
    neighbors = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5, unique=True))
    direct = {neighbor: draw(WEIGHTS) for neighbor in neighbors}
    versions = {}
    for neighbor in neighbors:
        candidates = [node for node in range(10) if node != neighbor]
        versions[neighbor] = [
            {node: draw(WEIGHTS) for node in draw(st.lists(st.sampled_from(candidates), unique=True, max_size=5))}
            for _ in range(2)
        ]
    first = [(neighbor, 0) for neighbor in draw(st.permutations(neighbors))]
    later = draw(st.lists(st.tuples(st.sampled_from(neighbors), st.integers(0, 1)), max_size=8))
    return direct, versions, first + later


class TestSelectionMemo:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=hello_schedules(), metric_name=st.sampled_from(sorted(METRICS)))
    def test_memoized_selection_equals_a_fresh_selection(self, schedule, metric_name):
        direct, versions, deliveries = schedule
        metric = METRICS[metric_name]
        for selector_name in SELECTORS.names():
            node = OlsrNode(0, metric, selector=make_selector(selector_name))
            for now, (neighbor, version) in enumerate(deliveries):
                _deliver(node, _hello(neighbor, versions[neighbor][version]), direct[neighbor], float(now))
                assert node.current_selection() == _fresh_selection(node, selector_name, metric)

    def test_a_change_of_only_the_last_report_of_a_link_is_seen(self):
        # Neighbors 1 and 2 both report the link 1-2, with bandwidths 10 and 0.5.  The
        # table content is the same whichever HELLO came last; the view is not: the last
        # report wins, and it decides whether 1 is best reached directly or through 2.
        metric = METRICS["bandwidth"]
        direct = {1: {"bandwidth": 1.0, "delay": 1.0}, 2: {"bandwidth": 10.0, "delay": 1.0}}
        hello_1 = _hello(1, {0: direct[1], 2: {"bandwidth": 10.0, "delay": 1.0}})
        hello_2 = _hello(2, {0: direct[2], 1: {"bandwidth": 0.5, "delay": 1.0}})
        node = OlsrNode(0, metric, selector=make_selector("fnbp"))
        table = node.neighbor_table

        def content():
            rows = table.two_hop_link_table()
            return {(a, b): sorted(w.items()) for a, row in rows.items() for b, w in row.items()}

        def key():
            return LocalView.table_key(0, table.neighbor_link_table(), table.two_hop_link_table())

        _deliver(node, hello_1, direct[1], 0.0)
        _deliver(node, hello_2, direct[2], 0.1)
        content_before, key_before = content(), key()
        first = node.current_selection()
        assert first == _fresh_selection(node, "fnbp", metric)
        _deliver(node, hello_1, direct[1], 0.2)  # the same HELLO again: now 1's report is last
        assert content() == content_before
        assert key() != key_before
        second = node.current_selection()
        assert second == _fresh_selection(node, "fnbp", metric)
        assert second != first

    def test_an_unchanged_view_does_not_run_the_selector_again(self):
        metric = METRICS["delay"]
        calls = []
        selector = make_selector("fnbp")
        select = selector.select

        def counting_select(view, metric):
            calls.append(view.owner)
            return select(view, metric)

        selector.select = counting_select
        node = OlsrNode(0, metric, selector=selector)
        hellos = [
            _hello(1, {0: {"bandwidth": 1.0, "delay": 2.0}, 3: {"bandwidth": 1.0, "delay": 1.0}}),
            _hello(2, {0: {"bandwidth": 1.0, "delay": 1.0}, 3: {"bandwidth": 1.0, "delay": 5.0}}),
        ]
        direct = {1: {"bandwidth": 1.0, "delay": 2.0}, 2: {"bandwidth": 1.0, "delay": 1.0}}
        for hello in hellos:
            _deliver(node, hello, direct[hello.originator], 0.0)
        node.refresh_selection()
        assert len(calls) == 1
        for hello in reversed(hellos):  # same reports, other table order
            _deliver(node, hello, direct[hello.originator], 0.5)
        node.refresh_selection()
        assert len(calls) == 1
        node.set_link_weights(2, {"bandwidth": 1.0, "delay": 9.0})
        _deliver(node, hellos[1], {"bandwidth": 1.0, "delay": 9.0}, 1.0)
        node.refresh_selection()
        assert len(calls) == 2

    def test_the_ansn_advances_on_every_refresh(self):
        node = OlsrNode(0, METRICS["bandwidth"])
        weights = {"bandwidth": 1.0, "delay": 1.0}
        _deliver(node, _hello(1, {0: weights, 2: weights}), weights, 0.0)
        ansns = []
        for _ in range(3):
            node.refresh_selection()
            ansns.append(node.make_tc().ansn)
        assert ansns == [1, 2, 3]


# ---------------------------------------------------------------------- tables


class _RebuildTopologyTable:
    """The topology table as a dict rebuilt on every newer announcement and purge."""

    def __init__(self) -> None:
        self.entries: Dict[tuple, tuple] = {}
        self.latest: Dict[int, int] = {}

    def update_from_tc(self, tc: TcMessage, now: float, hold_time: float) -> bool:
        latest = self.latest.get(tc.originator)
        if latest is not None and tc.ansn < latest:
            return False
        if latest is None or tc.ansn > latest:
            self.entries = {key: entry for key, entry in self.entries.items() if key[0] != tc.originator}
            self.latest[tc.originator] = tc.ansn
        expires = now + hold_time if math.isfinite(hold_time) else math.inf
        for link in tc.advertised:
            self.entries[(tc.originator, link.selector)] = (dict(link.weights), tc.ansn, expires)
        return True

    def expire(self, now: float) -> None:
        self.entries = {key: entry for key, entry in self.entries.items() if entry[2] > now}

    def advertised_links(self) -> Dict[tuple, dict]:
        return {(min(key), max(key)): dict(entry[0]) for key, entry in self.entries.items()}


tc_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("tc"),
            st.integers(1, 4),
            st.integers(0, 3),
            st.lists(st.tuples(st.integers(0, 6), WEIGHTS), max_size=4),
            st.sampled_from([0.5, 2.0, math.inf]),
        ),
        st.tuples(st.just("expire")),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(operations=tc_operations, steps=st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=40, max_size=40))
def test_indexed_topology_table_matches_the_rebuild(operations, steps):
    table, reference = TopologyTable(owner=0), _RebuildTopologyTable()
    now = 0.0
    for operation, step in zip(operations, steps):
        now += step
        if operation[0] == "tc":
            _, originator, ansn, links, hold = operation
            tc = TcMessage(
                originator=originator,
                sequence_number=0,
                ansn=ansn,
                advertised=tuple(AdvertisedLink(selector, weights) for selector, weights in links),
            )
            assert table.update_from_tc(tc, now=now, hold_time=hold) == reference.update_from_tc(tc, now, hold)
        else:
            table.expire(now)
            reference.expire(now)
        assert list(table.advertised_links().items()) == list(reference.advertised_links().items())
        assert [
            ((entry.originator, entry.selector), (entry.weights, entry.ansn, entry.expires_at))
            for entry in table.entries()
        ] == list(reference.entries.items())


class _RebuildNeighborTable:
    """The neighbor table purged by rebuilding both dicts on every call."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.neighbors: Dict[int, list] = {}  # node -> [weights, expires_at, is_mpr_selector]
        self.two_hop: Dict[tuple, tuple] = {}

    def update_from_hello(self, hello: HelloMessage, weights: dict, now: float, hold_time: float) -> None:
        expires = now + hold_time
        entry = self.neighbors.get(hello.originator)
        if entry is None:
            self.neighbors[hello.originator] = [dict(weights), expires, hello.declares_mpr(self.owner)]
        else:
            entry[0] = dict(weights)
            entry[1] = max(entry[1], expires)
            entry[2] = hello.declares_mpr(self.owner)
        self.two_hop = {key: value for key, value in self.two_hop.items() if key[0] != hello.originator}
        for report in hello.links:
            if report.neighbor != self.owner:
                self.two_hop[(hello.originator, report.neighbor)] = (dict(report.weights), expires)

    def expire(self, now: float) -> None:
        self.neighbors = {node: entry for node, entry in self.neighbors.items() if entry[1] > now}
        self.two_hop = {
            key: value for key, value in self.two_hop.items() if value[1] > now and key[0] in self.neighbors
        }


hello_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("hello"),
            st.integers(1, 5),
            st.lists(st.tuples(st.integers(0, 7), WEIGHTS, st.booleans()), max_size=4),
            st.sampled_from([0.5, 1.5, 3.0]),
        ),
        st.tuples(st.just("expire")),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(operations=hello_operations, steps=st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=30, max_size=30))
def test_neighbor_table_and_duplicate_set_match_the_rebuild(operations, steps):
    table, reference = NeighborTable(owner=0), _RebuildNeighborTable(owner=0)
    duplicates, seen, retransmitted, marked = DuplicateSet(), {}, {}, set()
    now = 0.0
    for index, (operation, step) in enumerate(zip(operations, steps)):
        now += step
        if operation[0] == "hello":
            _, originator, reports, hold = operation
            reports = {node: (weights, mpr) for node, weights, mpr in reports if node != originator}
            hello = HelloMessage(
                originator=originator,
                sequence_number=index,
                links=tuple(LinkReport(node, weights, is_mpr=mpr) for node, (weights, mpr) in reports.items()),
            )
            weights = {"bandwidth": float(originator), "delay": now}
            table.update_from_hello(hello, link_weights=weights, now=now, hold_time=hold)
            reference.update_from_hello(hello, weights, now, hold)
            duplicates.mark_processed(originator, index, now + hold)
            seen[(originator, index)] = now + hold
            if reports:
                duplicates.mark_retransmitted(originator, index, now + hold / 2)
                retransmitted[(originator, index)] = now + hold / 2
            marked.add((originator, index))
        else:
            table.expire(now)
            reference.expire(now)
            duplicates.expire(now)
            seen = {key: expiry for key, expiry in seen.items() if expiry > now}
            retransmitted = {key: expiry for key, expiry in retransmitted.items() if expiry > now}
        assert list(table.neighbor_link_table().items()) == [
            (node, entry[0]) for node, entry in reference.neighbors.items()
        ]
        assert [
            (neighbor, list(row.items())) for neighbor, row in table.two_hop_link_table().items()
        ] == _grouped(reference.two_hop)
        assert table.mpr_selectors() == frozenset(
            node for node, entry in reference.neighbors.items() if entry[2]
        )
        assert len(duplicates) == len(seen)
        for key in marked:
            assert duplicates.already_processed(*key) == (key in seen)
            assert duplicates.already_retransmitted(*key) == (key in retransmitted)


def _grouped(two_hop: Dict[tuple, tuple]) -> list:
    rows: Dict[int, list] = {}
    for (neighbor, other), (weights, _) in two_hop.items():
        rows.setdefault(neighbor, []).append((other, weights))
    return list(rows.items())


def _graph_report_by_report(owner, neighbor_links, two_hop_links):
    """The view graph built the way ``from_tables`` used to: one ``add_edge`` per report."""
    graph = nx.Graph()
    graph.add_node(owner)
    for neighbor, weights in neighbor_links.items():
        graph.add_edge(owner, neighbor, **dict(weights))
    for neighbor, reported in two_hop_links.items():
        if neighbor in neighbor_links:
            for other, weights in reported.items():
                if other != owner:
                    graph.add_edge(neighbor, other, **dict(weights))
    return graph


PARTIAL_WEIGHTS = st.dictionaries(st.sampled_from(["bandwidth", "delay"]), VALUES, min_size=1)


@st.composite
def protocol_tables(draw):
    """Tables of one owner: neighbors that report each other (so links are reported
    twice, with weights drawn independently), reports of the owner, and stale rows from
    non-neighbors."""
    owner = draw(st.integers(0, 9))
    others = [node for node in range(10) if node != owner]
    neighbors = draw(st.lists(st.sampled_from(others), unique=True, min_size=1, max_size=5))
    neighbor_links = {node: draw(WEIGHTS) for node in neighbors}
    stale = [node for node in draw(st.lists(st.sampled_from(others), max_size=2)) if node not in neighbors]
    two_hop_links = {}
    for reporter in draw(st.permutations(neighbors + sorted(set(stale)))):
        candidates = [node for node in range(10) if node != reporter]
        reported = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=6))
        two_hop_links[reporter] = {node: draw(PARTIAL_WEIGHTS) for node in reported}
    return owner, neighbor_links, two_hop_links


@settings(max_examples=200, deadline=None)
@given(tables=protocol_tables())
def test_from_tables_builds_the_graph_report_by_report(tables):
    """The merged build equals adding every report as it comes, node and edge order too."""
    owner, neighbor_links, two_hop_links = tables
    view = LocalView.from_tables(owner, neighbor_links, two_hop_links)
    expected = _graph_report_by_report(owner, neighbor_links, two_hop_links)
    assert list(view.graph.nodes) == list(expected.nodes)
    assert [(u, list(row.items())) for u, row in view.graph.adj.items()] == [
        (u, list(row.items())) for u, row in expected.adj.items()
    ]
    assert view.one_hop == set(neighbor_links)
    assert view.two_hop == set(expected.nodes) - set(neighbor_links) - {owner}
    # The key is exactly this graph's nodes, links and weights, in no particular order.
    key = LocalView.table_key(owner, neighbor_links, two_hop_links)
    assert key == (
        owner,
        view.one_hop,
        {(min(u, v), max(u, v)): data for u, v, data in expected.edges(data=True)},
    )
    # Reordering within each table row changes no link's last report, so not the key.
    assert key == LocalView.table_key(
        owner,
        dict(reversed(list(neighbor_links.items()))),
        {reporter: dict(reversed(list(row.items()))) for reporter, row in two_hop_links.items()},
    )


# ---------------------------------------------------------------------- routes on demand


def _eager_routes(owner, metric, neighbors: NeighborTable, topology: TopologyTable) -> dict:
    """Every destination's route, solved one by one inside ``recompute`` (the oracle)."""
    knowledge = RoutingTable(owner, metric)._knowledge_graph(neighbors, topology)
    compact = CompactGraph.try_from_networkx(knowledge, metric)
    solver_graph = compact if compact is not None else knowledge
    routes = {}
    for destination in [node for node in knowledge.nodes if node != owner]:
        from_destination = best_values_from(solver_graph, destination, metric, excluded=(owner,))
        hops_from_destination = {destination: 0.0}
        frontier = [destination]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in knowledge.neighbors(node):
                    if neighbor == owner or neighbor in hops_from_destination:
                        continue
                    hops_from_destination[neighbor] = hops_from_destination[node] + 1.0
                    next_frontier.append(neighbor)
            frontier = next_frontier
        candidates = {}
        for neighbor in neighbors.neighbors():
            if not knowledge.has_edge(owner, neighbor):
                continue
            link_value = metric.link_value_from_attributes(knowledge.adj[owner][neighbor])
            start = metric.combine(metric.identity, link_value)
            if neighbor == destination:
                candidates[neighbor] = (start, 1.0)
                continue
            remainder = from_destination.get(neighbor)
            if remainder is None:
                continue
            hop_estimate = 1.0 + hops_from_destination.get(neighbor, float("inf"))
            candidates[neighbor] = (metric.combine(start, remainder), hop_estimate)
        if not candidates:
            continue
        best_value = metric.optimum(value for value, _ in candidates.values())
        if not metric.is_usable(best_value):
            continue
        best_neighbors = {
            neighbor: hops
            for neighbor, (value, hops) in candidates.items()
            if metric.values_equal(value, best_value)
        }
        fewest_hops = min(best_neighbors.values())
        shortlist = [neighbor for neighbor, hops in best_neighbors.items() if hops == fewest_hops]
        chosen = preferred_neighbor(
            shortlist,
            metric,
            lambda neighbor: metric.link_value_from_attributes(knowledge.adj[owner][neighbor]),
        )
        routes[destination] = RouteEntry(destination, chosen, best_value)
    return routes


@st.composite
def routing_tables(draw):
    """Node 0's tables from drawn HELLOs and TCs.  TCs may advertise links of the owner
    and of non-neighbors, and may repeat a link a HELLO reported with other weights."""
    neighbors = NeighborTable(owner=0)
    for neighbor in draw(st.lists(st.integers(1, 8), unique=True, max_size=5)):
        others = [node for node in range(9) if node != neighbor]
        reports = draw(st.dictionaries(st.sampled_from(others), WEIGHTS, max_size=4))
        neighbors.update_from_hello(_hello(neighbor, reports), draw(WEIGHTS))
    topology = TopologyTable(owner=0)
    for originator in draw(st.lists(st.integers(1, 8), max_size=6)):
        others = [node for node in range(9) if node != originator]
        links = draw(st.dictionaries(st.sampled_from(others), WEIGHTS, max_size=4))
        advertised = tuple(AdvertisedLink(node, weights) for node, weights in links.items())
        topology.update_from_tc(TcMessage(originator, sequence_number=0, ansn=0, advertised=advertised))
    return neighbors, topology


@settings(max_examples=200, deadline=None)
@given(tables=routing_tables(), metric_name=st.sampled_from(sorted(METRICS)))
def test_on_demand_routes_equal_the_eager_loop(tables, metric_name):
    neighbors, topology = tables
    metric = METRICS[metric_name]
    expected = _eager_routes(0, metric, neighbors, topology)
    table = RoutingTable(owner=0, metric=metric)
    table.recompute(neighbors, topology)
    for destination in range(10):  # every node the tables can name, the owner and one more
        assert table.entry(destination) == expected.get(destination)
        assert table.next_hop(destination) == (
            expected[destination].next_hop if destination in expected else None
        )
    assert table.destinations() == sorted(expected)
    assert len(table) == len(expected)
