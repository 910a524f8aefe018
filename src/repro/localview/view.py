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

A view is its owner, its one- and two-hop sets and a *link map*: node ->
``{neighbour: link attributes}``.  Every query answers from those, the same way for every
view, and sees only ``G_u`` (a two-hop node's known neighbours are its row intersected with
``one_hop``).  The map is either

* the attribute snapshot of a shared :class:`~repro.localview.networkgraph.NetworkGraph`
  the view is *attached* to (:meth:`LocalView.all_from_network` with ``network_graph``):
  it holds the whole network, building the view copies nothing, and the batched kernels
  prime its first hops; or
* the view's own map of ``G_u`` (:meth:`from_network`, :meth:`from_tables`, the
  constructor, and any view after :meth:`update_link`).

:attr:`LocalView.links` is ``G_u`` alone as a link map: the view's own map, or derived on
first read from the snapshot -- never from the live network, which ``DynamicTopology``
mutates in place.  The compact graphs, the scalar topology-filtering table and the path
helpers of :mod:`repro.localview.paths` read it.

Views are immutable by default: the selection machinery caches compact graphs and
direct-link values per metric on the view, plus one metric-free :class:`Coverage` record
of which one-hop neighbours cover which two-hop neighbours, and sibling views share link
attribute dictionaries, so callers must treat ``view.links`` and its attribute dicts as
read-only.  The one sanctioned mutation path is :meth:`LocalView.update_link` (a node
re-measuring one of the links it knows about): it gives the view its own copy of the map
with a fresh attribute dictionary for the link, drops every derived cache via
:meth:`LocalView.invalidate_caches` and so detaches the view.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.localview.compactgraph import CompactGraph
from repro.metrics.base import Metric
from repro.utils.ids import NodeId

#: node -> ``{neighbour: link attributes}``, each link in both endpoints' rows.
Links = Dict[NodeId, Dict[NodeId, dict]]


class LocalView:
    """The two-hop local view ``G_u`` of a node ``u``."""

    def __init__(
        self,
        owner: NodeId,
        one_hop: Iterable[NodeId],
        two_hop: Iterable[NodeId],
        links: Links,
    ) -> None:
        """The view of ``owner`` in the link map ``links``: the declared nodes and every
        link of a one-hop neighbor (``links`` itself is neither kept nor modified)."""
        one_hop, two_hop = frozenset(one_hop), frozenset(two_hop)
        _validate(owner, one_hop, two_hop, links.get(owner, {}))
        stray = _two_hop(links, owner, one_hop) - two_hop
        if stray:
            raise ValueError(f"neighbors of one-hop neighbors missing from two_hop: {sorted(stray)}")
        own = _restrict(links, owner, one_hop, two_hop, None)
        self._setup(owner, one_hop, two_hop, own, own, None)

    def _setup(self, owner, one_hop, two_hop, adjacency, links, network_graph) -> None:
        self.owner = owner
        self.one_hop: FrozenSet[NodeId] = frozenset(one_hop)
        self.two_hop: FrozenSet[NodeId] = frozenset(two_hop)
        # What queries read: the shared snapshot, or the view's own map of G_u.
        self._adjacency: Links = adjacency
        # G_u alone, in view order (derived on first read when None).
        self._links: Optional[Links] = links
        self._network_graph = network_graph
        # Per-metric caches keyed by Metric.cache_token, plus what the batched kernels
        # primed (first hops, and filtering tables keyed by filtering.table_key).
        self._compact: Dict[object, CompactGraph] = {}
        self._direct: Dict[object, Dict[NodeId, float]] = {}
        self._first_hops: Dict[object, object] = {}
        self._coverage: Optional[Coverage] = None

    # ------------------------------------------------------------------ construction

    @classmethod
    def from_network(cls, network, owner: NodeId) -> "LocalView":
        """Build ``G_owner`` from a :class:`~repro.topology.network.Network`.

        Only the information available to a real node is copied: the links incident to the
        owner and to its one-hop neighbors.  Link weights are carried over verbatim.
        """
        if owner not in network:
            raise KeyError(f"node {owner} is not part of the network")
        return cls._from_adjacency(network.adjacency, owner, {})

    @classmethod
    def all_from_network(cls, network, network_graph=None) -> Dict[NodeId, "LocalView"]:
        """Every node's local view, as ``LocalView.from_network`` would build it, cheaply.

        With ``network_graph`` (a :class:`NetworkGraph` of the same network state) every
        view is attached to it: a few set operations per view and no per-view map.
        Without, each physical link's attribute dictionary is copied once and *shared*
        between the views that see it.
        """
        if network_graph is not None:
            return {owner: cls._attached(network_graph, owner) for owner in network.nodes()}
        adjacency = network.adjacency
        shared: Dict[int, dict] = {}
        return {owner: cls._from_adjacency(adjacency, owner, shared) for owner in network.nodes()}

    @classmethod
    def from_adjacency(cls, adjacency, owner: NodeId, network_graph=None) -> "LocalView":
        """One view of the state ``adjacency`` describes, as :meth:`all_from_network`
        builds it: attached to ``network_graph`` if given, else with its own map."""
        if network_graph is not None:
            return cls._attached(network_graph, owner)
        return cls._from_adjacency(adjacency, owner, {})

    @classmethod
    def _from_adjacency(cls, adjacency, owner: NodeId, shared: Dict[int, dict]) -> "LocalView":
        """One view with its own map; ``shared`` maps source attribute dicts' ids to copies."""
        one_hop = frozenset(iter(adjacency[owner]))  # filled as NetworkGraph.rows are
        two_hop = _two_hop(adjacency, owner, one_hop)
        return cls._own(owner, one_hop, two_hop, _restrict(adjacency, owner, one_hop, two_hop, shared))

    @classmethod
    def _attached(cls, network_graph, owner: NodeId) -> "LocalView":
        """The CSR-native view of ``owner``: its sets from the shared rows, no map of its own."""
        adjacency = network_graph.adjacency
        one_hop = network_graph.rows[owner]
        view = cls.__new__(cls)
        view._setup(owner, one_hop, _two_hop(adjacency, owner, one_hop), adjacency, None, network_graph)
        return view

    @classmethod
    def _own(cls, owner: NodeId, one_hop, two_hop, links: Links) -> "LocalView":
        """A view holding ``links``, its own map of ``G_u``."""
        _validate(owner, one_hop, two_hop, links[owner])
        view = cls.__new__(cls)
        view._setup(owner, one_hop, two_hop, links, links, None)
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
        The map lists nodes and links in report order.
        """
        return cls.from_table_key(cls.table_key(owner, neighbor_links, two_hop_links))

    @classmethod
    def from_table_key(cls, key: tuple) -> "LocalView":
        """The view :meth:`from_tables` builds, from the merge its :meth:`table_key` holds.

        The view's link map references the key's weight dicts, which both treat as
        read-only.
        """
        owner, one_hop, merged = key
        links: Links = {owner: {}}
        for (u, v), weights in merged.items():
            links.setdefault(u, {})[v] = weights
            links.setdefault(v, {})[u] = weights
        two_hop = set(iter(links)) - one_hop
        two_hop.discard(owner)
        return cls._own(owner, one_hop, two_hop, links)

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
    def links(self) -> Links:
        """``G_u`` alone as a link map, owner first (derived once for an attached view)."""
        links = self._links
        if links is None:
            links = self._links = _restrict(
                self._adjacency, self.owner, self.one_hop, self.two_hop, None
            )
        return links

    @property
    def nodes(self) -> Set[NodeId]:
        """All nodes the owner knows about (``V_u``)."""
        return {self.owner} | self.one_hop | self.two_hop

    def __contains__(self, node: NodeId) -> bool:
        """True when the owner knows about ``node`` (it is in ``V_u``)."""
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
            compact = CompactGraph.from_links(self.links, metric)
            self._compact[token] = compact
        return compact

    def coverage(self) -> "Coverage":
        """The view's two-hop coverage as bitmasks (built once from the link map, cached).

        Metric-free: it depends on which links exist, not on their weights.
        :meth:`invalidate_caches` drops it; a view moved onto rebuilt rows keeps it.
        """
        coverage = self._coverage
        if coverage is None:
            coverage = self._coverage = Coverage.of(self._adjacency, self.one_hop, self.two_hop)
        return coverage

    def network_graph(self):
        """The shared :class:`NetworkGraph` this view answers from, or None when the view
        holds its own map or was built before the graph's last ``rebuild`` (the graph's
        arrays no longer describe it)."""
        network_graph = self._network_graph
        if network_graph is None or network_graph.adjacency is not self._adjacency:
            return None
        return network_graph

    # ------------------------------------------------------------------ mutation

    def invalidate_caches(self) -> None:
        """Drop everything derived from the link attributes: the per-metric caches (compact
        graphs, direct values, first hops), the coverage record and :attr:`links`.

        Must be called on an attached view after a ``patch_weights`` of a link it sees
        (the map is derived again from the patched snapshot); :meth:`update_link` calls it
        itself.
        """
        self._compact.clear()
        self._direct.clear()
        self._first_hops.clear()
        self._links = self._coverage = None

    def _follow(self, network_graph) -> None:
        """Move onto a rebuilt snapshot that left the owner's neighbourhood (and caches,
        the coverage record included) intact."""
        self._adjacency = network_graph.adjacency

    def update_link(self, u: NodeId, v: NodeId, **weights: float) -> None:
        """Update the attributes of a known link, drop the derived caches and detach.

        Models a node re-measuring the QoS of a link it already knows about.  The view gets
        its own copy of :attr:`links` in which the link has a fresh attribute dictionary,
        so the update stays local to this view (other nodes only learn of new measurements
        through the protocol, not through shared memory) and the view no longer matches a
        shared CSR.
        """
        if not self.has_link(u, v):
            raise KeyError(f"node {self.owner} does not know of a link between {u} and {v}")
        links = {node: dict(row) for node, row in self.links.items()}
        updated = dict(links[u][v])
        updated.update(weights)
        links[u][v] = links[v][u] = updated
        self.invalidate_caches()
        self._adjacency = self._links = links

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """True when the owner knows about a link between ``u`` and ``v``."""
        return (u in self.one_hop or v in self.one_hop) and v in self._adjacency.get(u, ())

    def link_value(self, u: NodeId, v: NodeId, metric: Metric) -> float:
        """The weight of the known link ``(u, v)`` under ``metric``."""
        if not self.has_link(u, v):
            raise KeyError(f"node {self.owner} does not know of a link between {u} and {v}")
        return metric.link_value_from_attributes(self._adjacency[u][v])

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
                owner_row = self._adjacency[self.owner]
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
        if node in self.two_hop:
            return {other for other in self._adjacency[node] if other in self.one_hop}
        if node == self.owner or node in self.one_hop:
            return set(self._adjacency[node])
        return set()

    def common_relays(self, target: NodeId) -> Set[NodeId]:
        """One-hop neighbors ``w`` of the owner such that the path ``owner-w-target`` exists."""
        row = self._adjacency.get(target, ())
        return {w for w in self.one_hop if w in row}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalView(owner={self.owner}, one_hop={len(self.one_hop)}, "
            f"two_hop={len(self.two_hop)}, attached={self.network_graph() is not None})"
        )


class Coverage:
    """Which one-hop neighbours of a view cover which two-hop neighbours, as bitmasks.

    ``hops`` are the owner's one-hop neighbours and ``two_hops`` its two-hop neighbours,
    each sorted.  Bit ``i`` of a one-hop mask stands for ``hops[i]``, as in
    :class:`~repro.localview.paths.TargetRows`, and bit ``j`` of a two-hop mask for
    ``two_hops[j]``, the order of FNBP's two-hop row block.  ``covers[i]`` is the two-hop
    mask of the neighbours ``hops[i]`` is linked to; ``relays[j]`` is the one-hop mask of
    the neighbours linked to ``two_hops[j]`` (0 for a declared two-hop neighbour no link
    reaches).  MPR selection (:mod:`repro.olsr.mpr`, the QOLSR baselines) and FNBP's loop
    guard read it through :meth:`LocalView.coverage`.
    """

    __slots__ = ("hops", "two_hops", "covers", "relays")

    def __init__(
        self, hops: List[NodeId], two_hops: List[NodeId], covers: List[int], relays: List[int]
    ) -> None:
        self.hops = hops
        self.two_hops = two_hops
        self.covers = covers
        self.relays = relays

    @classmethod
    def of(cls, adjacency, one_hop: FrozenSet[NodeId], two_hop: FrozenSet[NodeId]) -> "Coverage":
        """The record of the view whose link map is ``adjacency``, in one pass over the
        one-hop rows (a two-hop node's row in a shared snapshot reaches beyond the view)."""
        hops = sorted(one_hop)
        two_hops = sorted(two_hop)
        index = dict(zip(two_hops, range(len(two_hops))))
        relays = [0] * len(two_hops)
        covers = []
        for i, hop in enumerate(hops):
            bit = 1 << i
            mask = 0
            for other in adjacency[hop]:
                if other in index:
                    j = index[other]
                    mask |= 1 << j
                    relays[j] |= bit
            covers.append(mask)
        return cls(hops, two_hops, covers, relays)


def mask_members(nodes: List[NodeId], mask: int) -> Tuple[NodeId, ...]:
    """The ``nodes[i]`` whose bits ``i`` ``mask`` sets, in bit order."""
    selected = []
    while mask:
        low = mask & -mask
        selected.append(nodes[low.bit_length() - 1])
        mask ^= low
    return tuple(selected)


def _validate(owner: NodeId, one_hop: FrozenSet[NodeId], two_hop: FrozenSet[NodeId], owner_row) -> None:
    if owner in one_hop or owner in two_hop:
        raise ValueError("the owner cannot be its own neighbor")
    overlap = one_hop & two_hop
    if overlap:
        raise ValueError(f"nodes cannot be both one- and two-hop neighbors: {sorted(overlap)}")
    for neighbor in one_hop:
        if neighbor not in owner_row:
            raise ValueError(f"missing direct link between owner {owner} and neighbor {neighbor}")


def _two_hop(adjacency, owner: NodeId, one_hop: FrozenSet[NodeId]) -> FrozenSet[NodeId]:
    """Every neighbor of a one-hop node that is neither the owner nor one hop away.

    Views built from the network and attached views must iterate it, and so order their
    maps, alike.  ``set.update`` presizes its table when fed a dict, so every neighbour set
    built from link-map rows is filled from a plain iterator, one node at a time.
    """
    two_hop: Set[NodeId] = set()
    for neighbor in one_hop:
        two_hop.update(iter(adjacency[neighbor]))
    two_hop.discard(owner)
    two_hop -= one_hop
    return frozenset(two_hop)


def _restrict(adjacency, owner, one_hop, two_hop, shared: Optional[Dict[int, dict]]) -> Links:
    """The view's links -- every link of a one-hop row of ``adjacency`` -- as a link map
    listing the owner, the one-hop and then the two-hop nodes, with attribute dicts copied
    once per ``shared`` batch, or referenced if it is None."""
    links: Links = {node: {} for node in (owner, *one_hop, *two_hop)}
    for neighbor in one_hop:
        row = links[neighbor]
        # Every neighbor of a one-hop node is the owner, one-hop or two-hop, so the whole
        # row is visible.
        for other, data in adjacency[neighbor].items():
            if shared is not None:
                copied = shared.get(id(data))
                if copied is None:
                    copied = shared[id(data)] = dict(data)
                data = copied
            row[other] = data
            links[other][neighbor] = data
    return links


def _merge_tables(
    owner: NodeId,
    neighbor_links: Dict[NodeId, Dict[str, float]],
    two_hop_links: Dict[NodeId, Dict[NodeId, Dict[str, float]]],
) -> Tuple[FrozenSet[NodeId], Dict[Tuple[NodeId, NodeId], Dict[str, float]]]:
    """The one-hop set and the links of the view built from protocol tables.

    Links are keyed ``(min, max)`` in the order they are first reported; a repeated
    report updates the first one's weights in place.  Adding them in this order builds
    the same map, node and row order included, as adding every report as it comes: each
    report has one endpoint already in the map (the owner or a one-hop neighbor), so the
    orientation never decides which node comes first.
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
