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

Views are immutable by default: the selection machinery caches one
:class:`~repro.localview.compactgraph.CompactGraph` *and* one owner-free
maximum-bottleneck spanning forest per metric on the view (:meth:`LocalView.compact_graph`
/ :meth:`LocalView.bottleneck_forest`), and the batch constructor
(:meth:`LocalView.all_from_network`) shares link-attribute dictionaries between sibling
views, so callers must treat ``view.graph`` and its edge data as read-only.  The one
sanctioned mutation path is :meth:`LocalView.update_link` (a node re-measuring one of the
links it knows about): it un-shares the edge-attribute dictionary before writing, so
sibling views built in the same batch are unaffected, and drops every derived cache via
:meth:`LocalView.invalidate_caches`.  Code that mutates ``view.graph`` behind the view's
back must call :meth:`LocalView.invalidate_caches` itself or the cached solvers will keep
answering from the pre-mutation snapshot.
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
        self.owner = owner
        self.one_hop: FrozenSet[NodeId] = frozenset(one_hop)
        self.two_hop: FrozenSet[NodeId] = frozenset(two_hop)
        self.graph = graph
        self._compact: Dict[object, CompactGraph] = {}
        self._forest: Dict[object, tuple] = {}
        # Shared network-level CSR backing (set by attach_network_graph) and what the
        # batched kernels primed on it: first-hop results keyed by metric token, and
        # topology-filtering tables keyed by repro.localview.filtering.table_key.
        self._network_graph = None
        self._first_hops: Dict[object, object] = {}
        self._validate()

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
        """Build every node's local view in one pass over the network's adjacency.

        Equivalent to ``{node: LocalView.from_network(network, node) for node in network}``
        but substantially cheaper: the network adjacency is walked once, and each physical
        link's attribute dictionary is copied once and *shared* between all the views that
        see the link (every view of a link's endpoint neighborhood would otherwise take its
        own copy).  The shared dictionaries are never mutated by the library; treat them as
        read-only.

        ``network_graph`` (a :class:`~repro.localview.networkgraph.NetworkGraph` built from
        the same network state) attaches every view to the shared CSR so the batched solver
        kernels can window it; omitted, the views run the scalar per-view path unchanged.
        """
        adjacency = network.graph.adj
        shared: Dict[int, dict] = {}
        views = {
            owner: cls._from_adjacency(adjacency, owner, shared) for owner in network.nodes()
        }
        if network_graph is not None:
            for view in views.values():
                view._network_graph = network_graph
        return views

    @classmethod
    def from_adjacency(
        cls,
        adjacency,
        owner: NodeId,
        shared: Optional[Dict[int, dict]] = None,
        network_graph=None,
    ) -> "LocalView":
        """Build one view from a networkx adjacency mapping, sharing attribute copies.

        The batch-rebuild hook of the dynamic-topology driver: pass the same ``shared``
        dictionary across several calls and each physical link's attribute dictionary is
        copied once and shared between the views built in the batch, exactly as
        :meth:`all_from_network` does for a full-network build.  ``network_graph``
        attaches the view to the shared CSR, as in :meth:`all_from_network`.
        """
        view = cls._from_adjacency(adjacency, owner, {} if shared is None else shared)
        if network_graph is not None:
            view._network_graph = network_graph
        return view

    @classmethod
    def _from_adjacency(cls, adjacency, owner: NodeId, shared: Dict[int, dict]) -> "LocalView":
        """Build one view directly from a networkx adjacency mapping.

        ``shared`` caches attribute-dict copies by the identity of the source dict so a
        batch of views copies each physical link's attributes only once.
        """
        owner_row = adjacency[owner]
        one_hop = frozenset(owner_row)
        two_hop: Set[NodeId] = set()
        for neighbor in one_hop:
            two_hop.update(adjacency[neighbor])
        two_hop.discard(owner)
        two_hop -= one_hop

        graph = nx.Graph()
        graph.add_node(owner)
        graph.add_nodes_from(one_hop)
        graph.add_nodes_from(two_hop)
        graph_adjacency = graph._adj
        for neighbor in one_hop:
            row = graph_adjacency[neighbor]
            for other, data in adjacency[neighbor].items():
                # Every neighbor of a one-hop node is the owner, one-hop or two-hop, so the
                # whole row is visible; copy the link attributes once per physical link.
                copied = shared.get(id(data))
                if copied is None:
                    copied = dict(data)
                    shared[id(data)] = copied
                row[other] = copied
                graph_adjacency[other][neighbor] = copied
        return cls(owner=owner, one_hop=one_hop, two_hop=two_hop, graph=graph)

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
        ``v`` about its own neighbor ``w``.
        """
        graph = nx.Graph()
        graph.add_node(owner)
        one_hop = set(neighbor_links)
        for neighbor, weights in neighbor_links.items():
            graph.add_edge(owner, neighbor, **dict(weights))
        two_hop: Set[NodeId] = set()
        for neighbor, reported in two_hop_links.items():
            if neighbor not in one_hop:
                # Stale report about a node that is no longer a neighbor; ignore it.
                continue
            for other, weights in reported.items():
                if other == owner:
                    continue
                graph.add_edge(neighbor, other, **dict(weights))
                if other not in one_hop:
                    two_hop.add(other)
        return cls(owner=owner, one_hop=one_hop, two_hop=two_hop, graph=graph)

    # ------------------------------------------------------------------ queries

    @property
    def nodes(self) -> Set[NodeId]:
        """All nodes the owner knows about (``V_u``)."""
        return set(self.graph.nodes)

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
        """The shared :class:`NetworkGraph` this view windows, or None (scalar-only view)."""
        return self._network_graph

    def window(self):
        """This view's :class:`GraphWindow` into the shared CSR (None when detached)."""
        if self._network_graph is None:
            return None
        return self._network_graph.window(self.owner)

    def attach_network_graph(self, network_graph) -> None:
        """(Re-)attach the view to a shared CSR describing the same network state.

        The caller vouches for consistency: the view's links and weights must equal the
        graph's rows for the owner's two-hop window (true by construction for views the
        batch constructors attached, and for the dynamic driver's re-attachment after it
        routed the same change through both the view and the shared arrays).
        """
        self._network_graph = network_graph

    # ------------------------------------------------------------------ mutation

    def invalidate_caches(self) -> None:
        """Drop every cached per-metric structure (compact graphs, forests, first hops).

        Must be called after *any* mutation of ``self.graph`` or its edge attributes; the
        sanctioned mutation path :meth:`update_link` does so automatically.
        """
        self._compact.clear()
        self._forest.clear()
        self._first_hops.clear()

    def update_link(self, u: NodeId, v: NodeId, **weights: float) -> None:
        """Update the attributes of a known link and drop the derived caches.

        Models a node re-measuring the QoS of a link it already knows about.  The link's
        attribute dictionary may be shared with sibling views built by
        :meth:`all_from_network`; it is replaced by a fresh copy before writing so the
        update stays local to this view (other nodes only learn of new measurements through
        the protocol, not through shared memory).
        """
        if not self.graph.has_edge(u, v):
            raise KeyError(f"node {self.owner} does not know of a link between {u} and {v}")
        adjacency = self.graph._adj
        updated = dict(adjacency[u][v])
        updated.update(weights)
        adjacency[u][v] = updated
        adjacency[v][u] = updated
        self.invalidate_caches()
        # The private measurement diverged from the network the shared CSR snapshots, so
        # exactly this view detaches from it (siblings keep batching); the dynamic
        # driver re-attaches via attach_network_graph after patching the shared arrays
        # with the same change.
        self._network_graph = None

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """True when the owner knows about a link between ``u`` and ``v``."""
        return self.graph.has_edge(u, v)

    def link_value(self, u: NodeId, v: NodeId, metric: Metric) -> float:
        """The weight of the known link ``(u, v)`` under ``metric``."""
        if not self.graph.has_edge(u, v):
            raise KeyError(f"node {self.owner} does not know of a link between {u} and {v}")
        return metric.link_value_from_attributes(self.graph.adj[u][v])

    def direct_link_value(self, neighbor: NodeId, metric: Metric) -> float:
        """The weight of the direct link from the owner to one of its neighbors."""
        if neighbor not in self.one_hop:
            raise KeyError(f"{neighbor} is not a one-hop neighbor of {self.owner}")
        return self.link_value(self.owner, neighbor, metric)

    def neighbors_of(self, node: NodeId) -> Set[NodeId]:
        """The neighbors of ``node`` *as known by the owner* (a subset of the true set)."""
        if node not in self.graph:
            return set()
        return set(self.graph.neighbors(node))

    def common_relays(self, target: NodeId) -> Set[NodeId]:
        """One-hop neighbors ``w`` of the owner such that the path ``owner-w-target`` exists."""
        return {w for w in self.one_hop if self.graph.has_edge(w, target)}

    def graph_without_owner(self) -> nx.Graph:
        """The view with the owner removed (used when computing paths that must not revisit it)."""
        return self.graph.subgraph([n for n in self.graph.nodes if n != self.owner])

    # ------------------------------------------------------------------ internals

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
            f"two_hop={len(self.two_hop)}, links={self.graph.number_of_edges()})"
        )
