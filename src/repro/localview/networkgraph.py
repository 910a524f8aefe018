"""One shared network-level CSR per trial, windowed by every :class:`LocalView`.

The compact-graph core (:mod:`repro.localview.compactgraph`) flattens each node's
two-hop view independently: building all views of a dense trial therefore re-extracts
every physical link's metric value once *per view that sees it* -- for the paper's dense
settings that is the same link touched well over a hundred times.  :class:`NetworkGraph`
hoists the flattening to the network level: the adjacency is laid out **once** as flat
``indptr``/``indices`` arrays (a classical CSR), and each metric's link values are
extracted **once per physical link** into one shared numpy array keyed by
:meth:`Metric.cache_token`.  A :class:`LocalView` attached to the shared graph
(:meth:`LocalView.attach_network_graph`) no longer owns the numbers its solvers run on --
its window is a set of *row and slot indices into the parent arrays* (see
:class:`GraphWindow`), and the batched solver kernels of :mod:`repro.localview.batched`
stack all owners' windows and expand every frontier together over the shared arrays.

Layout
------

* ``nodes``      -- tuple of node identifiers, **sorted**; position = global row index,
  so global index order and node-identifier order coincide (the batched kernels rely on
  this to emit results in ``known_targets()`` order without per-target sorting).
* ``index``      -- node identifier -> global row index.
* ``indptr``/``indices`` -- int64 CSR arrays; row ``i``'s neighbor indices are
  ``indices[indptr[i]:indptr[i+1]]``, sorted ascending.  Each undirected edge occupies
  one *slot* in each endpoint's row.
* ``slot_edge``  -- int64, slot -> undirected edge id.  Edge ids are assigned in
  lexicographic ``(u, v)`` order (``u < v``), deterministically.
* ``edge_u``/``edge_v`` -- int64 per-edge endpoint rows (``edge_u < edge_v``).
* per-token weight arrays -- ``edge_values(metric)`` (one float64 per edge) and
  ``slot_values(metric)`` (the same values scattered to slots), built lazily and only
  for metrics the specialized scalar solvers accept (``specialized_kind(metric)`` not
  None); composite metrics with non-float values are never materialized, so batched
  callers fall back to the scalar path for them.

Ownership and validity contract
-------------------------------

The graph snapshots the network's link attributes at build time (each attribute dict is
*copied*), so later mutations of the source network do not leak into already-extracted
weight arrays: a ``NetworkGraph`` and the views built against the same network state
stay mutually consistent even if the network moves on (the dynamic driver exploits
this -- see below).  Two mutation paths keep a shared graph current:

* :meth:`patch_weights` -- weight-only changes on surviving links.  The affected edges'
  values are re-extracted **in place** into every already-materialized weight array; the
  CSR index arrays are untouched, so existing :class:`GraphWindow` objects stay current
  (``version`` is bumped, ``generation`` is not -- previously *solved* results are stale,
  windows are not).
* :meth:`rebuild` -- structural changes (links appeared/disappeared).  All arrays are
  rebuilt from the network; ``generation`` (and ``version``) is bumped, invalidating
  every outstanding window.

:class:`~repro.mobility.dynamic.DynamicTopology` owns one ``NetworkGraph`` per dynamic
trial and routes each step's diff through exactly these two paths, mirroring what it
already does for the per-view caches.  Views never mutate the shared arrays; the
sanctioned per-view mutation path :meth:`LocalView.update_link` *detaches* the view
from the shared graph instead (its private measurement diverged from the network), so
exactly the touched view loses its window and every sibling keeps batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.localview.compactgraph import specialized_kind
from repro.metrics.base import Metric
from repro.utils.ids import NodeId

Edge = Tuple[NodeId, NodeId]


class NetworkGraph:
    """Flat CSR adjacency of a whole network plus shared per-metric weight arrays."""

    def __init__(self, network) -> None:
        #: Bumped by every mutation (weight patches and rebuilds): results computed
        #: from the arrays before the bump are stale.
        self.version = 0
        #: Bumped by structural rebuilds only: windows cut before the bump no longer
        #: describe valid rows/slots.
        self.generation = 0
        self._build(network)

    @classmethod
    def from_network(cls, network) -> "NetworkGraph":
        """Build the shared CSR of ``network``'s current state."""
        return cls(network)

    # ------------------------------------------------------------------ construction

    def _build(self, network) -> None:
        adjacency = network.graph.adj
        nodes: Tuple[NodeId, ...] = tuple(network.nodes())  # sorted by the Network contract
        index = {node: i for i, node in enumerate(nodes)}
        indptr: List[int] = [0]
        indices: List[int] = []
        slot_edge: List[int] = []
        edge_u: List[int] = []
        edge_v: List[int] = []
        edge_attrs: List[dict] = []
        edge_id: Dict[Tuple[int, int], int] = {}
        for i, node in enumerate(nodes):
            row = sorted((index[other], other) for other in adjacency[node])
            for j, other in row:
                indices.append(j)
                key = (i, j) if i < j else (j, i)
                e = edge_id.get(key)
                if e is None:
                    e = len(edge_attrs)
                    edge_id[key] = e
                    # Snapshot the attributes: the shared arrays must keep describing
                    # the network state the attached views were built from, even if the
                    # source network mutates afterwards.
                    edge_attrs.append(dict(adjacency[node][other]))
                    edge_u.append(key[0])
                    edge_v.append(key[1])
                slot_edge.append(e)
            indptr.append(len(indices))
        self.nodes = nodes
        self.index = index
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.slot_edge = np.asarray(slot_edge, dtype=np.int64)
        self.edge_u = np.asarray(edge_u, dtype=np.int64)
        self.edge_v = np.asarray(edge_v, dtype=np.int64)
        self._edge_attrs = edge_attrs
        self._edge_id = edge_id
        self._edge_values: Dict[object, np.ndarray] = {}
        self._slot_values: Dict[object, np.ndarray] = {}
        self._sorted_edges: Dict[object, np.ndarray] = {}
        self._metrics: Dict[object, Metric] = {}

    # ------------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self._edge_attrs)

    def edge_values(self, metric: Metric) -> Optional[np.ndarray]:
        """One float64 link value per undirected edge (lazily extracted, cached).

        Returns None when ``metric`` is not specialized (its values may not be plain
        floats -- e.g. lexicographic composites) or when some edge lacks the metric's
        attribute; callers fall back to the scalar per-view path in either case,
        mirroring :meth:`CompactGraph.try_from_networkx`.
        """
        if specialized_kind(metric) is None:
            return None
        token = metric.cache_token()
        values = self._edge_values.get(token)
        if values is None:
            extract = metric.link_value_from_attributes
            try:
                values = np.fromiter(
                    (extract(attrs) for attrs in self._edge_attrs),
                    dtype=np.float64,
                    count=len(self._edge_attrs),
                )
            except KeyError:
                return None
            self._edge_values[token] = values
            self._slot_values[token] = values[self.slot_edge]
            self._metrics[token] = metric
        return values

    def slot_values(self, metric: Metric) -> Optional[np.ndarray]:
        """``edge_values`` scattered to CSR slots (``slot_values[s]`` weighs slot ``s``)."""
        if self.edge_values(metric) is None:
            return None
        return self._slot_values[metric.cache_token()]

    def sorted_edges(self, metric: Metric) -> Optional[np.ndarray]:
        """Edge ids argsorted best-first by ``metric.sort_key`` (cached per token).

        This is the **one shared Kruskal order** every owner's batched bottleneck pass
        filters instead of re-sorting its visible edges: the sort is stable, so equal
        keys keep edge-id (lexicographic ``(u, v)``) order, which makes the per-owner
        forests deterministic.  (Any maximum-bottleneck forest yields the same pairwise
        bottleneck values, so the forests need not match the scalar solver's edge-by-edge
        -- only the *values* must, and they do exactly.)
        """
        values = self.edge_values(metric)
        if values is None:
            return None
        token = metric.cache_token()
        order = self._sorted_edges.get(token)
        if order is None:
            kind = specialized_kind(metric)
            keys = values if kind == "additive" else -values
            order = np.argsort(keys, kind="stable").astype(np.int64)
            self._sorted_edges[token] = order
        return order

    def window(self, owner: NodeId) -> "GraphWindow":
        """Cut the two-hop window of ``owner`` out of the shared arrays.

        The window holds **indices only** -- member rows and the slots of the rows fully
        visible to the owner -- and reads weights through the parent at query time, so
        in-place weight patches are visible without rebuilding the window.
        """
        g = self.index[owner]
        one = self.indices[self.indptr[g] : self.indptr[g + 1]]
        slots, _ = row_slots(self.indptr, np.concatenate((np.asarray([g], dtype=np.int64), one)))
        dsts = self.indices[slots]
        member = np.zeros(len(self.nodes), dtype=bool)
        member[one] = True
        member[g] = True
        two = np.unique(dsts[~member[dsts]])
        members = np.concatenate((np.asarray([g], dtype=np.int64), one, two))
        return GraphWindow(
            parent=self,
            owner=owner,
            members=members,
            one_hop_count=int(one.size),
            slots=slots,
            generation=self.generation,
        )

    # ------------------------------------------------------------------ mutation

    def patch_weights(self, network, edges: Iterable[Edge]) -> None:
        """Re-extract the values of surviving, reweighted ``edges`` in place.

        ``network`` must be the graph's source network with the new attribute values
        already applied; each edge's attribute snapshot is refreshed and every
        already-materialized weight array is patched in place (no reallocation, so
        windows and array references held by the batched kernels stay valid).  Cached
        Kruskal orders are dropped (relative order may have changed).
        """
        graph_edges = network.graph.edges
        index = self.index
        touched: List[int] = []
        for u, v in edges:
            i, j = index[u], index[v]
            key = (i, j) if i < j else (j, i)
            e = self._edge_id[key]
            self._edge_attrs[e] = dict(graph_edges[u, v])
            touched.append(e)
        for token, metric in self._metrics.items():
            extract = metric.link_value_from_attributes
            values = self._edge_values[token]
            for e in touched:
                values[e] = extract(self._edge_attrs[e])
            # Refresh the slot scatter in place so outstanding references see the patch.
            self._slot_values[token][:] = values[self.slot_edge]
        self._sorted_edges.clear()
        self.version += 1

    def rebuild(self, network) -> None:
        """Rebuild every array from ``network`` after a structural change.

        The object identity is preserved (views and the dynamic driver hold references);
        ``generation`` is bumped so every window cut before the rebuild reports
        ``is_current() == False``.
        """
        self._build(network)
        self.version += 1
        self.generation += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkGraph(nodes={len(self.nodes)}, edges={self.edge_count()}, "
            f"tokens={len(self._edge_values)}, generation={self.generation})"
        )


@dataclass(frozen=True)
class GraphWindow:
    """A :class:`LocalView`'s slice of the shared CSR: indices into the parent arrays.

    ``members`` lists global rows as ``[owner] + sorted one-hop + sorted two-hop`` and
    ``slots`` the CSR slots of the owner's and the one-hop rows (the rows the owner sees
    *completely*; a two-hop row is only partially visible, its in-window slots already
    appear among the one-hop rows' slots in the other direction).  The window owns no
    weights: :meth:`weights` gathers from the parent at call time, which is what makes
    in-place weight patches (``patch_weights``) visible to existing windows.  A window
    is invalidated -- :meth:`is_current` turns False -- only by a structural
    :meth:`NetworkGraph.rebuild`.
    """

    parent: NetworkGraph
    owner: NodeId
    members: np.ndarray
    one_hop_count: int
    slots: np.ndarray
    generation: int

    def is_current(self) -> bool:
        """True while the parent has not been structurally rebuilt since the cut."""
        return self.generation == self.parent.generation

    def member_nodes(self) -> List[NodeId]:
        """The window's node identifiers, owner first."""
        nodes = self.parent.nodes
        return [nodes[g] for g in self.members.tolist()]

    def weights(self, metric: Metric) -> Optional[np.ndarray]:
        """The current per-slot link values of the window (gathered from the parent)."""
        slot_values = self.parent.slot_values(metric)
        if slot_values is None:
            return None
        return slot_values[self.slots]


def row_slots(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR slot positions of ``rows`` concatenated, plus each row's degree.

    Vectorized equivalent of ``concatenate([arange(indptr[r], indptr[r+1]) for r in
    rows])`` -- the basic gather every batched kernel starts from.
    """
    starts = indptr[rows]
    degs = indptr[rows + 1] - starts
    total = int(degs.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), degs
    offsets = np.repeat(np.cumsum(degs) - degs, degs)
    slots = np.arange(total, dtype=np.int64) - offsets + np.repeat(starts, degs)
    return slots, degs


def seg_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]-1, 0..counts[1]-1, ...]`` concatenated, as one int64 array."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(offs, counts)
