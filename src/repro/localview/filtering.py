"""Batched topology filtering over the shared network-level CSR.

The topology-filtering baseline (:mod:`repro.baselines.topology_filtering`) reduces each
view ``G_u`` with a QoS relative neighbourhood graph (:func:`repro.localview.rng.qos_rng_reduce`)
and then collects, per one- and two-hop target, every first hop of a best path of at most
two hops.  Run view by view, the reduction repeats the same witness tests in every one of
the heavily overlapping views.  This module computes the same per-target table for many
owners at once, in two steps:

**One witness table per priming pass** (:func:`dominance_witnesses`).  For every
undirected link ``(a, b)`` it lists the link's strict-dominance witnesses: the common
neighbours ``c`` whose two legs ``(a, c)`` and ``(c, b)`` are both ``Metric.is_better``
than the direct link.  Triangles are found by pairing the slots of each sorted CSR row
and looking the closing link up in the (globally sorted) ``row * n + column`` slot keys.
The table is not cached on the :class:`NetworkGraph`: a trial primes each CSR state once
per selector and metric, so a cached table would never be read twice.

**The per-view rule.**  ``G_u`` holds every link with an endpoint in ``N(u)``, so a
witness ``c`` of a link ``(a, b)`` of ``G_u`` has both legs inside ``G_u`` exactly when at
least two of ``{a, b, c}`` lie in ``N(u)``.  The reduction therefore removes

* the owner's own links and links between two one-hop neighbours whenever they have any
  witness at all (every witness of such a link qualifies);
* a one-hop -> two-hop link ``(w, t)`` only when one of its witnesses is itself a one-hop
  neighbour of ``u``.

Those are the only links the two-hop first-hop collection reads, so the kernel never
materializes a reduced graph.  It then forms every owner's candidates -- the direct
link per one-hop target and ``owner - w - target`` per relay -- with the scalar code's
exact float expressions (``combine(combine(identity, first), second)``), keeps the
surviving ones (or all of them for a target the reduction left without a candidate, the
scalar fallback to the unreduced view), and takes each target's best value and the tie
mask of its best first hops with segmented reductions.  Each owner gets one
:class:`~repro.localview.paths.TargetRows`, every target by identifier, whose masks the
selector reads directly.

Bit-identity with the scalar selector is pinned by ``tests/test_filtering_kernel.py``.
The tolerance tests replay :meth:`Metric.values_equal` and ``is_better`` elementwise.
What the kernel batches, and which owners it answers, is the one admission rule of
:func:`~repro.localview.networkgraph.kernel_kind`; views that hold their own map
(protocol-table views among them) and everything the rule declines take the scalar
path.  Owners are processed in fixed-size chunks so the transient arrays stay small.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.localview.networkgraph import (
    NetworkGraph,
    combine_lanes,
    kernel_kind,
    row_slots,
    seg_arange,
    segment_masks,
    values_equal,
)
from repro.localview.paths import TargetRows
from repro.metrics.base import Metric
from repro.utils.ids import NodeId

#: Owners solved per kernel pass; bounds the transient arrays (and so peak memory).
OWNER_CHUNK = 64
#: Neighbour pairs examined per witness-table pass, for the same reason.
PAIR_CHUNK = 1 << 16


def table_key(metric: Metric) -> tuple:
    """The ``LocalView._first_hops`` key a primed filtering table is stored under."""
    return ("topology-filtering", metric.cache_token())


def _is_better(a: np.ndarray, b: np.ndarray, kind: str, rel_tol: float) -> np.ndarray:
    """Elementwise stock ``is_better``: strictly better and not ``values_equal``."""
    strictly = a > b if kind == "concave" else a < b
    return strictly & ~values_equal(a, b, rel_tol)


# ---------------------------------------------------------------------- witness table


def dominance_witnesses(
    ng: NetworkGraph, metric: Metric, kind: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Every link's strict-dominance witnesses as CSR arrays ``(ptr, nodes)``.

    Witnesses of edge ``e`` are the global rows ``nodes[ptr[e]:ptr[e + 1]]`` (sorted): the
    common neighbours ``c`` of its endpoints with both legs ``is_better`` than ``e``.
    ``kind`` is :func:`~repro.localview.networkgraph.kernel_kind` of ``metric`` on
    ``ng``, which :func:`batched_filtering_tables` checks.
    """
    values = ng.edge_values(metric)
    slot_values = ng.slot_values(metric)
    indptr, indices, slot_edge = ng.indptr, ng.indices, ng.slot_edge
    n = len(ng.nodes)
    rel_tol = metric.rel_tol
    degree = np.diff(indptr)
    slot_row = np.repeat(np.arange(n, dtype=np.int64), degree)
    # Rows are sorted and laid out in row order, so the slot keys are sorted globally.
    keys = slot_row * n + indices
    # Pair every slot (apex a -> b) with the later slots (a -> c, c > b) of its row; a
    # slot has fewer partners than the largest degree, which bounds each pass.
    later = indptr[slot_row + 1] - np.arange(indices.size, dtype=np.int64) - 1
    step = max(1, PAIR_CHUNK // max(1, int(degree.max(initial=0))))
    edge_parts = [np.empty(0, dtype=np.int64)]
    node_parts = [np.empty(0, dtype=np.int64)]
    for lo in range(0, indices.size, step):
        counts = later[lo : lo + step]
        s1 = np.repeat(np.arange(lo, lo + counts.size, dtype=np.int64), counts)
        s2 = s1 + 1 + seg_arange(counts)
        query = indices[s1] * n + indices[s2]
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        closed = keys[pos] == query  # the link (b, c) exists: a triangle with apex a
        s1, s2, pos = s1[closed], s2[closed], pos[closed]
        edge = slot_edge[pos]
        direct = values[edge]
        dominated = _is_better(slot_values[s1], direct, kind, rel_tol) & _is_better(
            slot_values[s2], direct, kind, rel_tol
        )
        edge_parts.append(edge[dominated])
        node_parts.append(slot_row[s1[dominated]])
    edges = np.concatenate(edge_parts)
    witnesses = np.concatenate(node_parts)
    order = np.argsort(edges * n + witnesses, kind="stable")
    ptr = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges, minlength=values.size), out=ptr[1:])
    return ptr, witnesses[order]


# ---------------------------------------------------------------------- per-owner tables


def prime_filtering_tables(views: Iterable, metric: Metric) -> int:
    """Compute and store the filtering table of every batchable view; returns the count.

    Views attached to a shared :class:`NetworkGraph` get their table (one
    :class:`TargetRows`, every target by identifier) stored in
    ``view._first_hops`` under :func:`table_key`, where
    :meth:`TopologyFilteringSelector.select` picks it up.  Views that hold their own map
    and whatever :func:`~repro.localview.networkgraph.kernel_kind` declines are left for
    the scalar path.
    """
    key = table_key(metric)
    groups: Dict[int, Tuple[NetworkGraph, list]] = {}
    for view in views:
        ng = view.network_graph()
        if ng is None or key in view._first_hops:
            continue
        groups.setdefault(id(ng), (ng, []))[1].append(view)
    primed = 0
    for ng, group in groups.values():
        tables = batched_filtering_tables(ng, [view.owner for view in group], metric)
        if tables is None:
            continue
        for view in group:
            table = tables.get(view.owner)
            if table is not None:
                view._first_hops[key] = table
                primed += 1
    return primed


def batched_filtering_tables(
    ng: NetworkGraph, owners: List[NodeId], metric: Metric
) -> Optional[Dict[NodeId, TargetRows]]:
    """``{owner: table}`` for the owners the kernel answers; None if not batchable.

    An owner missing from the result had a near-tie and must take the scalar path.
    """
    kind = kernel_kind(ng, metric)
    if kind is None:
        return None
    w_slots = ng.slot_values(metric)
    witnesses = dominance_witnesses(ng, metric, kind)
    index = ng.index
    rows = np.asarray([index[owner] for owner in owners], dtype=np.int64)
    tables: Dict[NodeId, TargetRows] = {}
    for start in range(0, rows.size, OWNER_CHUNK):
        _filter_chunk(ng, rows[start : start + OWNER_CHUNK], metric, kind, w_slots, witnesses, tables)
    return tables


def _filter_chunk(ng, g, metric, kind, w_slots, witnesses, tables) -> None:
    """Solve one chunk of owner rows ``g`` into ``tables`` (near-tie owners skipped)."""
    indptr, indices, slot_edge = ng.indptr, ng.indices, ng.slot_edge
    n = len(ng.nodes)
    N = g.size
    nodes = ng.nodes

    # Owner links (u -> w), one per one-hop neighbour w.
    o_slot, deg = row_slots(indptr, g)
    o_owner = np.repeat(np.arange(N, dtype=np.int64), deg)
    relay = indices[o_slot]
    o_bit = seg_arange(deg)  # the relay's bit: its place in the owner's sorted row
    is_one = np.zeros(N * n, dtype=bool)  # (owner, node) -> node in N(owner)
    is_one[o_owner * n + relay] = True
    w_first = w_slots[o_slot]

    # Relay links (w -> t), every target t != u of every one-hop neighbour w.
    r_slot, rdeg = row_slots(indptr, relay)
    r_pair = np.repeat(np.arange(relay.size, dtype=np.int64), rdeg)
    r_target = indices[r_slot]
    keep = r_target != g[o_owner[r_pair]]
    r_slot, r_pair, r_target = r_slot[keep], r_pair[keep], r_target[keep]
    r_owner = o_owner[r_pair]
    if kind == "concave":
        r_value = np.minimum(w_first[r_pair], w_slots[r_slot])
    else:
        r_value = (metric.identity + w_first[r_pair]) + w_slots[r_slot]

    ptr, witness_nodes = witnesses
    has_witness = ptr[1:] > ptr[:-1]
    first_alive = ~has_witness[slot_edge[o_slot]]
    r_edge = slot_edge[r_slot]
    r_dead = has_witness[r_edge]
    # A link between two members of N(u) drops on any witness; a link to a two-hop
    # target drops only on a witness inside N(u), so look those witnesses up.
    check = np.flatnonzero(r_dead & ~is_one[r_owner * n + r_target])
    counts = ptr[r_edge[check] + 1] - ptr[r_edge[check]]
    c = witness_nodes[np.repeat(ptr[r_edge[check]], counts) + seg_arange(counts)]
    hit = is_one[np.repeat(r_owner[check], counts) * n + c]
    inside = np.zeros(check.size, dtype=bool)
    inside[np.repeat(np.arange(check.size, dtype=np.int64), counts)[hit]] = True
    r_dead[check[~inside]] = False
    alive = np.concatenate((first_alive, first_alive[r_pair] & ~r_dead))

    # Candidates: the direct link to each one-hop target, then every relay path.
    c_owner = np.concatenate((o_owner, r_owner))
    c_target = np.concatenate((relay, r_target))
    c_bit = np.concatenate((o_bit, o_bit[r_pair]))
    c_value = np.concatenate((w_first, r_value))
    if c_owner.size == 0:  # only isolated owners
        for row in g.tolist():
            tables[nodes[row]] = TargetRows([], [], [], [])
        return
    group_key = c_owner * n + c_target
    order = np.argsort(group_key * n + c_bit)  # unique keys: (owner, target, hop) order
    group_key = group_key[order]
    c_bit = c_bit[order]
    c_value = c_value[order]
    new_group = np.r_[True, group_key[1:] != group_key[:-1]]
    starts = np.flatnonzero(new_group)
    group_of = np.cumsum(new_group) - 1
    alive = alive[order]
    # A target the reduction left without any candidate falls back to all of them.
    has_alive = np.logical_or.reduceat(alive, starts)
    active = alive | ~has_alive[group_of]
    group_of = group_of[active]
    c_bit = c_bit[active]
    c_value = c_value[active]
    a_starts = np.flatnonzero(np.r_[True, group_of[1:] != group_of[:-1]])
    reduce = np.maximum if kind == "concave" else np.minimum
    best = reduce.reduceat(c_value, a_starts)
    best_of = best[group_of]
    tied = c_value == best_of
    near = ~tied & values_equal(c_value, best_of, metric.rel_tol)
    group_owner = group_key[starts] // n
    skip = np.zeros(N, dtype=bool)
    skip[group_owner[group_of[near]]] = True

    # Rows: each owner's targets by identifier, with the bits of their tied hops.
    mask_l = combine_lanes(segment_masks(c_bit, tied, a_starts))
    target_l = [nodes[t] for t in (group_key[starts] - group_owner * n).tolist()]
    hop_l = [nodes[h] for h in relay.tolist()]
    best_l = best.tolist()
    owner_bounds = np.searchsorted(group_owner, np.arange(N + 1)).tolist()
    hop_bounds = np.cumsum(np.r_[0, deg]).tolist()
    skip_l = skip.tolist()
    for i, row in enumerate(g.tolist()):
        if skip_l[i]:
            continue
        lo, hi = owner_bounds[i], owner_bounds[i + 1]
        tables[nodes[row]] = TargetRows(
            hop_l[hop_bounds[i] : hop_bounds[i + 1]], target_l[lo:hi], best_l[lo:hi], mask_l[lo:hi]
        )
