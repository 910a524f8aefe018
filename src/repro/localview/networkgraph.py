"""One shared network-level CSR per network state, which every attached :class:`LocalView` answers from.

A per-view graph repeats each link's work once per view that sees it -- well over a
hundred times in the paper's dense settings.  :class:`NetworkGraph` lays the network out
**once**: CSR arrays for the batched kernels (:mod:`repro.localview.batched`,
:mod:`repro.localview.filtering`), a neighbour set per node and one attribute snapshot.

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
* ``rows``       -- node -> frozenset of its neighbours, filled from the network's row one
  node at a time, as a view built from the network fills its ``one_hop``, so both iterate
  alike (``Metric.optimum``'s first-wins scans depend on it).
* ``adjacency``  -- node -> ``{neighbour: attributes}`` in the network's adjacency order,
  one attribute dict per link shared by both directions: the link map attached views
  answer from and derive ``view.links`` from.
* per-token weight arrays -- ``edge_values(metric)`` (one float64 per edge) and
  ``slot_values(metric)`` (the same values scattered to slots), built lazily and only
  for metrics the specialized scalar solvers accept (``specialized_kind(metric)`` not
  None).  ``value_rows(metric)`` regroups the slot values into one
  ``{neighbour: value}`` dict per node, lazily: the views' direct-link values.

The batched kernels answer from these arrays under one admission rule,
:func:`kernel_kind`, and leave everything else to the scalar path.

Immutability
------------

A graph is a value: it is built once from a network's state and never changes.  The build
copies each link's attribute dict, so later mutations of the source network do not leak
into it, and no method mutates it afterwards; the weight arrays, Kruskal orders and value
rows filled lazily per metric are memos of that one state.  A view attached to a graph
therefore describes the same state for as long as it holds the graph.
:class:`~repro.mobility.dynamic.DynamicTopology` builds a new graph for each step that
adds, removes or reweights a link.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.localview.compactgraph import specialized_kind
from repro.metrics.base import AdditiveMetric, ConcaveMetric, Metric
from repro.utils.ids import NodeId


class NetworkGraph:
    """Flat CSR adjacency of a whole network plus shared per-metric weight arrays."""

    def __init__(self, network) -> None:
        live = network.adjacency
        nodes: Tuple[NodeId, ...] = tuple(network.nodes())  # sorted by the Network contract
        index = {node: i for i, node in enumerate(nodes)}
        # One attribute copy per physical link: the views built from it must keep
        # describing this state while the source network moves on.
        adjacency: Dict[NodeId, Dict[NodeId, dict]] = {}
        for node in nodes:
            row = {}
            for other, data in live[node].items():
                seen = adjacency.get(other)
                row[other] = seen[node] if seen is not None else dict(data)
            adjacency[node] = row
        indptr: List[int] = [0]
        indices: List[int] = []
        slot_edge: List[int] = []
        edge_u: List[int] = []
        edge_v: List[int] = []
        edge_attrs: List[dict] = []
        edge_id: Dict[Tuple[int, int], int] = {}
        for i, node in enumerate(nodes):
            row = adjacency[node]
            for j, other in sorted((index[other], other) for other in row):
                indices.append(j)
                key = (i, j) if i < j else (j, i)
                e = edge_id.get(key)
                if e is None:
                    e = len(edge_attrs)
                    edge_id[key] = e
                    edge_attrs.append(row[other])
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
        self.adjacency = adjacency
        # From the live rows, exactly as a view built from the network takes its one-hop
        # set: a frozenset's iteration order depends on how it was filled.
        self.rows: Dict[NodeId, frozenset] = {node: frozenset(iter(live[node])) for node in nodes}
        self._edge_attrs = edge_attrs
        self._edge_values: Dict[object, np.ndarray] = {}
        self._slot_values: Dict[object, np.ndarray] = {}
        self._sorted_edges: Dict[object, np.ndarray] = {}
        self._value_rows: Dict[object, Dict[NodeId, Dict[NodeId, float]]] = {}

    @classmethod
    def from_network(cls, network) -> "NetworkGraph":
        """Build the shared CSR of ``network``'s current state."""
        return cls(network)

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
        attribute; callers fall back to the scalar per-view path in either case.
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
        return values

    def slot_values(self, metric: Metric) -> Optional[np.ndarray]:
        """``edge_values`` scattered to CSR slots (``slot_values[s]`` weighs slot ``s``)."""
        if self.edge_values(metric) is None:
            return None
        return self._slot_values[metric.cache_token()]

    def value_rows(self, metric: Metric) -> Optional[Dict[NodeId, Dict[NodeId, float]]]:
        """``{node: {neighbour: link value}}`` from ``slot_values`` (lazily, per token;
        None when that is).  Shared by the attached views as their direct values: read-only."""
        token = metric.cache_token()
        rows = self._value_rows.get(token)
        if rows is None:
            slot_values = self.slot_values(metric)
            if slot_values is None:
                return None
            values = slot_values.tolist()
            nodes = self.nodes
            neighbours = [nodes[j] for j in self.indices.tolist()]
            bounds = self.indptr.tolist()
            rows = {
                node: dict(zip(neighbours[bounds[i] : bounds[i + 1]], values[bounds[i] : bounds[i + 1]]))
                for i, node in enumerate(nodes)
            }
            self._value_rows[token] = rows
        return rows

    def sorted_edges(self, metric: Metric) -> Optional[np.ndarray]:
        """Edge ids argsorted best-first by ``metric.sort_key`` (cached per token).

        This is the **one shared Kruskal order** of the batched bottleneck kernel: each
        kernel pass sorts all its owners' visible edges at once by ``(owner, rank in
        this order)`` instead of sorting every view's edges.  The sort is stable, so
        equal keys keep edge-id (lexicographic ``(u, v)``) order, which makes the
        per-owner forests deterministic.  (Any maximum-bottleneck forest yields the same
        pairwise bottleneck values, so the forests need not match the scalar solver's
        edge-by-edge -- only the *values* must, and they do exactly.)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkGraph(nodes={len(self.nodes)}, edges={self.edge_count()}, "
            f"tokens={len(self._edge_values)})"
        )


def kernel_kind(ng: NetworkGraph, metric: Metric) -> Optional[str]:
    """The one admission rule of the batched kernels: ``"additive"`` / ``"concave"`` when
    they may solve ``metric`` on ``ng``, else None (the scalar path answers).

    The metric keeps its family's stock ``combine``, ``identity``, ``sort_key``,
    ``values_equal``, ``is_better`` and ``optimum``, which the kernels inline, and the
    family's ``kind`` (prefix-optimal when additive), so the scalar dispatch runs the
    solver they reproduce.  Every link value under it is present and finite, and for an
    additive metric non-negative, with a total too small for any path sum to overflow:
    an undirected negative link is a negative cycle, an overflowed ``inf`` label reads
    as unreached, ``-inf`` is the bottleneck kernel's unreachable sentinel, and NaN
    compares unlike anything the scalar scans expect.

    Within an admitted group a kernel still returns rows only for the owners it
    replays exactly.  A first-wins ``Metric.optimum`` scan (the concave kernel and
    topology filtering) settles a *near-tie* row -- a candidate that is a different
    float from the row's best yet :func:`values_equal` to it -- by scan order, so its
    owner goes whole to the scalar path.  The additive kernel's best value is an exact
    ``min`` of labels and answers every owner.
    """
    kind = specialized_kind(metric)
    if kind is None:
        return None
    family = AdditiveMetric if kind == "additive" else ConcaveMetric
    cls = type(metric)
    if cls.is_better is not family.is_better or cls.optimum is not Metric.optimum:
        return None
    if metric.kind is not family.kind or (kind == "additive" and not metric.prefix_optimal):
        return None
    values = ng.edge_values(metric)
    if values is None:
        return None
    admitted = np.isfinite(values)
    if kind == "additive":
        with np.errstate(over="ignore", invalid="ignore"):
            total = 2.0 * values.sum()
        admitted &= (values >= 0) & np.isfinite(total)
    return kind if admitted.all() else None


def values_equal(a: np.ndarray, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """Elementwise :meth:`Metric.values_equal`: ``==``, else finite ``math.isclose`` with
    ``rel_tol`` as both tolerances (``rel_tol * max(|a|, |b|)`` rounds to the larger of
    ``|rel_tol * a|`` and ``|rel_tol * b|``, so the bound is ``isclose``'s exactly)."""
    with np.errstate(invalid="ignore"):
        close = np.abs(a - b) <= np.maximum(rel_tol * np.maximum(np.abs(a), np.abs(b)), rel_tol)
    return (a == b) | (close & np.isfinite(a) & np.isfinite(b))


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


def segment_masks(cols: np.ndarray, flags: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per segment (``starts`` as for ``reduceat``), the bitmask of the columns ``cols``
    whose ``flags`` are set, as a (segment, lane) matrix of uint64 lanes of 64 bits."""
    lanes = max(1, (int(cols.max(initial=0)) + 64) // 64)
    bits = np.where(flags, np.uint64(1) << (cols & 63).astype(np.uint64), np.uint64(0))
    masks = np.empty((starts.size, lanes), dtype=np.uint64)
    for k in range(lanes):
        lane = bits if lanes == 1 else np.where(cols >> 6 == k, bits, np.uint64(0))
        masks[:, k] = np.bitwise_or.reduceat(lane, starts)
    return masks


def combine_lanes(masks: np.ndarray) -> List[int]:
    """A (row, lane) uint64 matrix as one Python int bitmask per row."""
    combined = masks[:, 0].tolist()
    for lane in range(1, masks.shape[1]):
        shift = 64 * lane
        combined = [m | (c << shift) for m, c in zip(combined, masks[:, lane].tolist())]
    return combined
