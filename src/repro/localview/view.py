"""A node's partial view of the network, ``G_u``.

OLSR nodes only know their one- and two-hop neighborhood, learned from HELLO messages that
piggyback each neighbor's own neighbor table.  The paper formalizes this as the graph
``G_u = (V_u, E_u)`` with ``V_u = {u} ∪ N(u) ∪ N²(u)`` and ``E_u`` containing every link with
at least one endpoint in ``N(u)`` (so links between two 2-hop neighbors are *not* visible --
this is exactly why a localized algorithm cannot always find the globally optimal path, as
the paper's Figure 2 illustrates with the invisible link ``(v8, v9)``).

:class:`LocalView` is that object.  Every selection algorithm in the library (FNBP and all
baselines) takes a :class:`LocalView` as input, which keeps them honest: they can only use
information a real OLSR node would have.

A view *attached* to a shared :class:`~repro.localview.networkgraph.NetworkGraph`
(:meth:`LocalView.all_from_network` with ``network_graph``) holds its owner, its one- and
two-hop sets and the graph's neighbour rows and attribute snapshot; every query answers
from those (a two-hop node's known neighbours are its row intersected with ``one_hop``),
the batched kernels prime its first hops, and ``view.graph`` is built on first read from
the snapshot -- never from the live network, which ``DynamicTopology`` mutates in place.
A *detached* view (:meth:`from_network`, :meth:`from_tables`, the constructor) owns its
networkx graph.

Views are immutable by default: the selection machinery caches compact graphs, bottleneck
forests and direct-link values per metric on the view, and sibling views share link
attribute dictionaries, so callers must treat ``view.graph`` and its edge data as
read-only.  The one sanctioned mutation path is :meth:`LocalView.update_link` (a node
re-measuring one of the links it knows about): it un-shares the edge-attribute dictionary
before writing, drops every derived cache via :meth:`LocalView.invalidate_caches` and
detaches the view.  Code that mutates ``view.graph`` behind the view's back must call
:meth:`LocalView.invalidate_caches` itself or the cached solvers will keep answering
from the pre-mutation snapshot.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

import networkx as nx

from repro.localview.compactgraph import CompactGraph, max_bottleneck_forest
from repro.metrics.base import Metric
from repro.utils.ids import NodeId


class LocalView:
    """The two-hop local view ``G_u`` of a node ``u``."""

    def __init__(
        self,
        owner: NodeId,
        one_hop: Iterable[NodeId],
        two_hop: Iterable[NodeId],
        graph: nx.Graph,
    ) -> None:
        self._setup(owner, one_hop, two_hop, graph, None)
        self._validate()

    def _setup(self, owner, one_hop, two_hop, graph, network_graph) -> None:
        self.owner = owner
        self.one_hop: FrozenSet[NodeId] = frozenset(one_hop)
        self.two_hop: FrozenSet[NodeId] = frozenset(two_hop)
        self._graph: Optional[nx.Graph] = graph
        # An attached view's CSR with its rows and snapshot as of the build (a rebuild
        # replaces the CSR's, so the view keeps describing its own state); None detached.
        self._network_graph = network_graph
        self._rows = None if network_graph is None else network_graph.rows
        self._adjacency = None if network_graph is None else network_graph.adjacency
        # Per-metric caches keyed by Metric.cache_token, plus what the batched kernels
        # primed (first hops, and filtering tables keyed by filtering.table_key).
        self._compact: Dict[object, CompactGraph] = {}
        self._forest: Dict[object, tuple] = {}
        self._direct: Dict[object, Dict[NodeId, float]] = {}
        self._first_hops: Dict[object, object] = {}

    # ------------------------------------------------------------------ construction

    @classmethod
    def from_network(cls, network, owner: NodeId) -> "LocalView":
        """Build ``G_owner`` from a :class:`~repro.topology.network.Network`.

        Only the information available to a real node is copied: the links incident to the
        owner and to its one-hop neighbors.  Link weights are carried over verbatim.
        """
        if owner not in network:
            raise KeyError(f"node {owner} is not part of the network")
        return cls._from_adjacency(network.graph.adj, owner, {})

    @classmethod
    def all_from_network(cls, network, network_graph=None) -> Dict[NodeId, "LocalView"]:
        """Every node's local view, as ``LocalView.from_network`` would build it, cheaply.

        With ``network_graph`` (a :class:`NetworkGraph` of the same network state) every
        view is attached to it: a few set operations per view and no per-view graph.
        Without, each physical link's attribute dictionary is copied once and *shared*
        between the detached views that see it.
        """
        if network_graph is not None:
            return {owner: cls._attached(network_graph, owner) for owner in network.nodes()}
        adjacency = network.graph.adj
        shared: Dict[int, dict] = {}
        return {owner: cls._from_adjacency(adjacency, owner, shared) for owner in network.nodes()}

    @classmethod
    def from_adjacency(cls, adjacency, owner: NodeId, network_graph=None) -> "LocalView":
        """One view of the state ``adjacency`` describes, as :meth:`all_from_network`
        builds it: attached to ``network_graph`` if given, else detached."""
        if network_graph is not None:
            return cls._attached(network_graph, owner)
        return cls._from_adjacency(adjacency, owner, {})

    @classmethod
    def _from_adjacency(cls, adjacency, owner: NodeId, shared: Dict[int, dict]) -> "LocalView":
        """One detached view; ``shared`` maps source attribute dicts' ids to copies."""
        one_hop = frozenset(adjacency[owner])
        two_hop = _two_hop(adjacency, owner, one_hop)
        graph = _view_graph(adjacency, owner, one_hop, two_hop, shared)
        return cls(owner=owner, one_hop=one_hop, two_hop=two_hop, graph=graph)

    @classmethod
    def _attached(cls, network_graph, owner: NodeId) -> "LocalView":
        """The CSR-native view of ``owner``: its sets from the shared rows, no graph yet."""
        one_hop = network_graph.rows[owner]
        view = cls.__new__(cls)
        view._setup(
            owner, one_hop, _two_hop(network_graph.adjacency, owner, one_hop), None, network_graph
        )
        return view

    @classmethod
    def from_tables(
        cls,
        owner: NodeId,
        neighbor_links: Dict[NodeId, Dict[str, float]],
        two_hop_links: Dict[NodeId, Dict[NodeId, Dict[str, float]]],
    ) -> "LocalView":
        """Build a view from protocol tables (as the simulator's OLSR nodes do).

        ``neighbor_links[v]`` holds the weights of the direct link ``(owner, v)``;
        ``two_hop_links[v][w]`` holds the weights of the link ``(v, w)`` reported by neighbor
        ``v`` about its own neighbor ``w``.  Reports from non-neighbors and reports of
        links to the owner are ignored; a link reported more than once (by both of its
        endpoints, say) gets each report's weights in turn, so the last report wins.
        """
        one_hop, links = _merge_tables(owner, neighbor_links, two_hop_links)
        graph = nx.Graph()
        graph.add_node(owner)
        for (u, v), weights in links.items():
            graph.add_edge(u, v, **weights)
        two_hop = set(graph) - one_hop
        two_hop.discard(owner)
        return cls(owner=owner, one_hop=one_hop, two_hop=two_hop, graph=graph)

    @staticmethod
    def table_key(
        owner: NodeId,
        neighbor_links: Dict[NodeId, Dict[str, float]],
        two_hop_links: Dict[NodeId, Dict[NodeId, Dict[str, float]]],
    ) -> tuple:
        """The view :meth:`from_tables` would build, without building it.

        The owner, the one-hop set and every link with its weights after the merge
        ``from_tables`` applies.  Two keys compare equal exactly when the two views have
        the same nodes, links and weights, whatever order the tables listed them in, so a
        selection computed on one view holds for any table state with an equal key.  The
        key is a value to compare, not to hash.
        """
        one_hop, links = _merge_tables(owner, neighbor_links, two_hop_links)
        return (owner, one_hop, links)

    # ------------------------------------------------------------------ queries

    @property
    def graph(self) -> nx.Graph:
        """The view as a networkx graph (an attached view builds it on first read)."""
        graph = self._graph
        if graph is None:
            graph = self._graph = _view_graph(
                self._adjacency, self.owner, self.one_hop, self.two_hop, None
            )
        return graph

    @property
    def nodes(self) -> Set[NodeId]:
        """All nodes the owner knows about (``V_u``)."""
        if self._rows is None:
            return set(self.graph.nodes)
        return {self.owner} | self.one_hop | self.two_hop

    def __contains__(self, node: NodeId) -> bool:
        """True when the owner knows about ``node`` (it is in ``V_u``)."""
        if self._rows is None:
            return node in self.graph
        return node == self.owner or node in self.one_hop or node in self.two_hop

    def known_targets(self) -> list[NodeId]:
        """The owner's one- and two-hop neighbors, sorted (the targets ANS selection covers)."""
        return sorted(self.one_hop | self.two_hop)

    def compact_graph(self, metric: Metric) -> CompactGraph:
        """The flat-adjacency snapshot of the view under ``metric`` (built once, cached).

        Caching is sound because views are immutable once constructed; the cache key is
        :meth:`Metric.cache_token`, which identifies the metric's link-value extraction
        rule (not just its display name).
        """
        token = metric.cache_token()
        compact = self._compact.get(token)
        if compact is None:
            compact = CompactGraph.from_networkx(self.graph, metric)
            self._compact[token] = compact
        return compact

    def bottleneck_forest(self, metric: Metric) -> tuple:
        """The owner-free maximum-bottleneck spanning forest under ``metric`` (cached).

        This is what lets repeated concave selector runs on one view skip Kruskal entirely:
        the forest is a pure function of the view's link weights, so it is built once per
        metric cache token (like :meth:`compact_graph`) and shared by every subsequent
        ``bottleneck-forest`` solve.  The forest adjacency is indexed like
        ``self.compact_graph(metric)`` and is immutable; :meth:`invalidate_caches` drops it
        together with the compact graphs whenever the view's links change.
        """
        token = metric.cache_token()
        forest = self._forest.get(token)
        if forest is None:
            cg = self.compact_graph(metric)
            forest = max_bottleneck_forest(cg, cg.index[self.owner], metric)
            self._forest[token] = forest
        return forest

    def network_graph(self):
        """The shared :class:`NetworkGraph` this view answers from, or None when detached
        or built before the graph's last ``rebuild`` (its arrays no longer describe it)."""
        network_graph = self._network_graph
        if network_graph is None or network_graph.rows is not self._rows:
            return None
        return network_graph

    # ------------------------------------------------------------------ mutation

    def invalidate_caches(self) -> None:
        """Drop every cached per-metric structure (compact graphs, forests, first hops).

        Must be called after *any* mutation of ``self.graph`` or its edge attributes, and
        on an attached view after a ``patch_weights`` of a link it sees (its graph goes
        too, rebuilt from the patched snapshot); :meth:`update_link` calls it itself.
        """
        self._compact.clear()
        self._forest.clear()
        self._direct.clear()
        self._first_hops.clear()
        if self._rows is not None:
            self._graph = None

    def _follow(self, network_graph) -> None:
        """Move onto rebuilt rows that left the owner's neighbourhood (and caches) intact."""
        self._rows = network_graph.rows
        self._adjacency = network_graph.adjacency

    def update_link(self, u: NodeId, v: NodeId, **weights: float) -> None:
        """Update the attributes of a known link, drop the derived caches and detach.

        Models a node re-measuring the QoS of a link it already knows about.  The link's
        attribute dictionary may be shared with sibling views; it is replaced by a fresh
        copy before writing so the update stays local to this view (other nodes only learn
        of new measurements through the protocol, not through shared memory).  The view's
        graph becomes its own state: it no longer matches the shared CSR.
        """
        graph = self.graph
        if not graph.has_edge(u, v):
            raise KeyError(f"node {self.owner} does not know of a link between {u} and {v}")
        adjacency = graph._adj
        updated = dict(adjacency[u][v])
        updated.update(weights)
        adjacency[u][v] = updated
        adjacency[v][u] = updated
        self._network_graph = self._rows = self._adjacency = None
        self.invalidate_caches()

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """True when the owner knows about a link between ``u`` and ``v``."""
        rows = self._rows
        if rows is None:
            return self.graph.has_edge(u, v)
        return (u in self.one_hop or v in self.one_hop) and v in rows.get(u, ())

    def link_value(self, u: NodeId, v: NodeId, metric: Metric) -> float:
        """The weight of the known link ``(u, v)`` under ``metric``."""
        if not self.has_link(u, v):
            raise KeyError(f"node {self.owner} does not know of a link between {u} and {v}")
        return metric.link_value_from_attributes(self._links()[u][v])

    def direct_link_values(self, metric: Metric) -> Dict[NodeId, float]:
        """``{one-hop neighbor: direct-link weight}`` under ``metric`` (cached, read-only):
        the owner's row of the shared ``value_rows`` when attached, else the attributes."""
        token = metric.cache_token()
        values = self._direct.get(token)
        if values is None:
            network_graph = self.network_graph()
            rows = None if network_graph is None else network_graph.value_rows(metric)
            if rows is not None:
                values = rows[self.owner]
            else:
                extract = metric.link_value_from_attributes
                owner_row = self._links()[self.owner]
                values = {neighbor: extract(owner_row[neighbor]) for neighbor in self.one_hop}
            self._direct[token] = values
        return values

    def direct_link_value(self, neighbor: NodeId, metric: Metric) -> float:
        """The weight of the direct link from the owner to one of its neighbors."""
        if neighbor not in self.one_hop:
            raise KeyError(f"{neighbor} is not a one-hop neighbor of {self.owner}")
        return self.direct_link_values(metric)[neighbor]

    def neighbors_of(self, node: NodeId) -> Set[NodeId]:
        """The neighbors of ``node`` *as known by the owner* (a subset of the true set)."""
        rows = self._rows
        if rows is None:
            graph = self.graph
            return set(graph.neighbors(node)) if node in graph else set()
        if node == self.owner or node in self.one_hop:
            return set(rows[node])
        if node in self.two_hop:
            return set(rows[node] & self.one_hop)
        return set()

    def common_relays(self, target: NodeId) -> Set[NodeId]:
        """One-hop neighbors ``w`` of the owner such that the path ``owner-w-target`` exists."""
        rows = self._rows
        if rows is None:
            graph = self.graph
            return {w for w in self.one_hop if graph.has_edge(w, target)}
        row = rows.get(target, ())
        return {w for w in self.one_hop if w in row}

    def graph_without_owner(self) -> nx.Graph:
        """The view with the owner removed (used when computing paths that must not revisit it)."""
        return self.graph.subgraph([n for n in self.graph.nodes if n != self.owner])

    # ------------------------------------------------------------------ internals

    def _links(self):
        """Node -> ``{neighbor: link attributes}``: the snapshot, or the view's own graph."""
        return self.graph.adj if self._rows is None else self._adjacency

    def _validate(self) -> None:
        if self.owner in self.one_hop or self.owner in self.two_hop:
            raise ValueError("the owner cannot be its own neighbor")
        overlap = self.one_hop & self.two_hop
        if overlap:
            raise ValueError(f"nodes cannot be both one- and two-hop neighbors: {sorted(overlap)}")
        if self.owner not in self.graph:
            self.graph.add_node(self.owner)
        for neighbor in self.one_hop:
            if not self.graph.has_edge(self.owner, neighbor):
                raise ValueError(f"missing direct link between owner {self.owner} and neighbor {neighbor}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalView(owner={self.owner}, one_hop={len(self.one_hop)}, "
            f"two_hop={len(self.two_hop)}, attached={self._rows is not None})"
        )


def _two_hop(adjacency, owner: NodeId, one_hop: FrozenSet[NodeId]) -> FrozenSet[NodeId]:
    """Every neighbor of a one-hop node that is neither the owner nor one hop away.

    Attached and detached views must iterate it, and so build their graphs, in one order;
    ``set.update`` sizes its table differently for a dict than for the network's adjacency
    views, so it is fed plain iterators.
    """
    two_hop: Set[NodeId] = set()
    for neighbor in one_hop:
        two_hop.update(iter(adjacency[neighbor]))
    two_hop.discard(owner)
    two_hop -= one_hop
    return frozenset(two_hop)


def _view_graph(adjacency, owner, one_hop, two_hop, shared: Optional[Dict[int, dict]]) -> nx.Graph:
    """The view's links -- every link of a one-hop row of ``adjacency`` -- as a graph,
    with attribute dicts copied once per ``shared`` batch, or referenced if it is None."""
    graph = nx.Graph()
    graph.add_node(owner)
    graph.add_nodes_from(one_hop)
    graph.add_nodes_from(two_hop)
    graph_adjacency = graph._adj
    for neighbor in one_hop:
        row = graph_adjacency[neighbor]
        # Every neighbor of a one-hop node is the owner, one-hop or two-hop, so the whole
        # row is visible.
        for other, data in adjacency[neighbor].items():
            if shared is not None:
                copied = shared.get(id(data))
                if copied is None:
                    copied = shared[id(data)] = dict(data)
                data = copied
            row[other] = data
            graph_adjacency[other][neighbor] = data
    return graph


def _merge_tables(
    owner: NodeId,
    neighbor_links: Dict[NodeId, Dict[str, float]],
    two_hop_links: Dict[NodeId, Dict[NodeId, Dict[str, float]]],
) -> Tuple[FrozenSet[NodeId], Dict[Tuple[NodeId, NodeId], Dict[str, float]]]:
    """The one-hop set and the links of the view built from protocol tables.

    Links are keyed ``(min, max)`` in the order they are first reported; a repeated
    report updates the first one's weights (networkx's ``add_edge`` rule).  Adding them
    in this order builds the same graph, node and adjacency order included, as adding
    every report as it comes: each report has one endpoint already in the graph (the
    owner or a one-hop neighbor), so the orientation never decides which node comes first.
    """
    one_hop = frozenset(neighbor_links)
    links: Dict[Tuple[NodeId, NodeId], Dict[str, float]] = {}
    for neighbor, weights in neighbor_links.items():
        links[(owner, neighbor) if owner <= neighbor else (neighbor, owner)] = dict(weights)
    for neighbor, reported in two_hop_links.items():
        if neighbor not in one_hop:
            # Stale report about a node that is no longer a neighbor; ignore it.
            continue
        for other, weights in reported.items():
            if other == owner:
                continue
            key = (neighbor, other) if neighbor <= other else (other, neighbor)
            merged = links.get(key)
            if merged is None:
                links[key] = dict(weights)
            else:
                merged.update(weights)
    return one_hop, links
