"""Batched numpy solver kernels over the shared network-level CSR.

These kernels compute, for *many owners at once*, exactly what the scalar per-view fast
paths of :mod:`repro.localview.paths` compute for one owner: the auto-method
``all_first_hops`` result.  All owners' two-hop windows are stacked into one flat row
space and solved together with array operations; the scalar code's per-edge Python
interpreter work (heap pushes, dict lookups, tuple unpacking) collapses into a handful
of vectorized passes.

Bit-identity is the design constraint, not an aspiration; the differential suite pins
``SelectionResult`` equality (including tie sets) against the scalar solvers on every
topology it generates.  The arguments:

**Additive kernel** (:func:`_batched_owner_dijkstra`).  The scalar solver is Dijkstra
with plain float addition.  For non-negative weights the float labels it produces are
the unique least fixpoint of ``d[v] = min(seed[v], min over incident (u, v) of
fl(d[u] + w))`` where ``fl`` is one IEEE-754 double addition: every relaxation candidate
is the *fold-left* float sum of some path's weights, float addition of a non-negative
weight is monotone non-decreasing, and the standard Dijkstra optimality induction goes
through verbatim under those two facts.  The batched kernel runs Bellman-Ford-style
Jacobi iteration to that same fixpoint with ``np.minimum.at`` -- each candidate is the
**same single** ``dist[u] + w`` double addition the scalar code performs, and ``min``
over floats is order-independent, so the converged labels are bit-identical whatever
order numpy relaxes edges in.  That *is* the pinned canonical summation order: per-edge
fold-left accumulation, combined only through exact ``min``; no wider intermediate
precision, no pairwise/blocked re-association (which is also why the kernel never uses
``np.add.reduce`` over path weights).  ``tests/test_networkgraph.py`` compares the label
arrays against the scalar solver with ``==``, not ``approx``.

Reachability is tracked in a separate boolean array (the scalar solver encodes
"unvisited" as ``None`` so that a legitimately infinite link weight still counts as
reachable -- a float ``inf`` label alone cannot distinguish the two).

The tight-edge tests reuse the scalar code's exact float expressions: the seed test
``diff <= rel_tol * larger or diff <= rel_tol`` and the one-sided propagation test
``not (diff > rel_tol and diff > rel_tol * candidate)``, evaluated in float64 exactly
as the scalar code evaluates them (NaN from ``inf - inf`` compares False on both sides,
matching the scalar semantics).  First-hop sets propagate as per-owner bitmask lanes
(uint64) or-ed to a fixpoint with ``np.bitwise_or.at``; an or-monotone fixpoint is
unique, so Jacobi iteration reaches exactly the scalar worklist's result.

**Concave kernel** (:func:`_batched_bottleneck_forest`).  Bottleneck values carry no
arithmetic at all -- every value is the exact ``min``/``max`` of actual link weights --
and all maximum-bottleneck spanning forests of a graph give identical pairwise
bottleneck values.  So the kernel may build its per-owner Kruskal forest by filtering
**one shared argsorted edge order** (:meth:`NetworkGraph.sorted_edges`) instead of
re-sorting per view, and relax a ``(max, min)``-semiring fixpoint over the forest with
numpy; the resulting per-(neighbor, target) candidate values equal the scalar solver's
floats bit for bit.  One subtlety survives: ``Metric.optimum`` is a *first-wins* scan
under tolerant comparison, so when several candidate floats are distinct yet within
``rel_tol`` of the maximum, the scalar best value depends on the scan order.  The
kernel detects exactly those (rare) targets vectorially and replays the scalar scan for
them alone; everywhere else the float maximum provably equals the scalar scan's result.

Both kernels return plain Python floats (via ``.tolist()``, an exact bit-preserving
conversion) inside ordinary :class:`FirstHopResult` objects, so downstream consumers
(selection, JSON sinks) never see numpy scalars.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.localview.compactgraph import specialized_kind
from repro.localview.networkgraph import NetworkGraph, row_slots, seg_arange
from repro.localview.paths import FirstHopResult
from repro.metrics.base import Metric, MetricKind
from repro.obs import runtime as obs
from repro.utils.ids import NodeId

_NEG_INF = -math.inf


def batched_all_first_hops(
    ng: NetworkGraph, views: List, metric: Metric
) -> Optional[Dict[NodeId, Dict[NodeId, FirstHopResult]]]:
    """Auto-method ``all_first_hops`` for every view at once, or None when not batchable.

    ``views`` must all be attached to ``ng`` (their declared one-/two-hop sets are then
    windows of its rows by construction).  Returns ``{owner: {target: FirstHopResult}}``
    with exactly the payload the scalar auto dispatch produces, or None when the metric
    is not specialized / lacks an attribute, in which case callers fall back to the
    scalar path (which is trivially bit-identical to itself).

    Telemetry (when enabled): each batched solve counts one
    ``kernel.batched_dispatches`` plus ``kernel.batched_views`` per owner solved; an
    unbatchable combination counts ``kernel.unbatchable_groups`` (its views then surface
    as ``kernel.scalar_dispatches`` when the scalar auto path solves them).
    """
    kind = specialized_kind(metric)
    if kind == "additive" and metric.kind is MetricKind.ADDITIVE and metric.prefix_optimal:
        w_slots = ng.slot_values(metric)
        if w_slots is not None:
            result = _batched_owner_dijkstra(ng, views, metric, w_slots)
            obs.add("kernel.batched_dispatches")
            obs.add("kernel.batched_views", len(views))
            return result
    elif kind == "concave" and metric.kind is MetricKind.CONCAVE:
        if ng.edge_values(metric) is not None:
            result = _batched_bottleneck_forest(ng, views, metric)
            obs.add("kernel.batched_dispatches")
            obs.add("kernel.batched_views", len(views))
            return result
    obs.add("kernel.unbatchable_groups")
    return None


def batched_additive_labels(
    ng: NetworkGraph, owners: List[NodeId], metric: Metric
) -> Optional[Dict[NodeId, Dict[NodeId, float]]]:
    """Owner-rooted additive distance labels over each owner's window, batched.

    The regression surface for the canonical-summation-order guarantee: returns, per
    owner, ``{node: label}`` for every *reached* window node, with labels bit-identical
    to the scalar Dijkstra's (compared with ``==`` in the tests).  None when the metric
    is not batchable.
    """
    kind = specialized_kind(metric)
    if kind != "additive":
        return None
    w_slots = ng.slot_values(metric)
    if w_slots is None:
        return None
    stack = _stack_windows(ng, owners, w_slots)
    dist, reached = _relax_to_fixpoint(stack)
    nodes = ng.nodes
    out: Dict[NodeId, Dict[NodeId, float]] = {}
    for owner, off, members, _deg in stack.meta:
        V = members.size
        dist_l = dist[off : off + V].tolist()
        reach_l = reached[off : off + V].tolist()
        members_l = members.tolist()
        out[owner] = {
            nodes[members_l[i]]: dist_l[i] for i in range(V) if reach_l[i]
        }
    return out


# ---------------------------------------------------------------------- window stacking


class _Stack:
    """All owners' windows concatenated into one flat row space."""

    __slots__ = ("src", "dst", "w", "owner_rows", "meta", "rows")

    def __init__(self, src, dst, w, owner_rows, meta, rows):
        self.src = src  # int64 directed-edge source rows
        self.dst = dst  # int64 directed-edge destination rows
        self.w = w  # float64 directed-edge weights
        self.owner_rows = owner_rows  # int64, one stacked row per owner
        self.meta = meta  # [(owner, offset, members_global, one_hop_count)]
        self.rows = rows  # total stacked row count


def _stack_windows(ng: NetworkGraph, owners: Iterable[NodeId], w_slots) -> _Stack:
    """Cut every owner's two-hop window and stack them with disjoint row offsets.

    Local rows are ``[owner, sorted one-hop, sorted two-hop]``.  Directed edges: every
    slot of the owner's and the one-hop rows (those rows are fully visible in the view),
    plus the reverse direction of slots whose destination is a two-hop member (the
    two-hop row itself is only partially visible, so its in-window directions must be
    mirrored rather than gathered from its own row).
    """
    indptr, indices = ng.indptr, ng.indices
    index = ng.index
    n = len(ng.nodes)
    owners = list(owners)
    N = len(owners)
    empty_i = np.empty(0, dtype=np.int64)
    empty_f = np.empty(0, dtype=np.float64)
    if N == 0:
        return _Stack(empty_i, empty_i, empty_f, empty_i, [], 0)
    # The whole stacking runs vectorized over every owner at once.  Per-owner node
    # sets live in an (owner, node) key space of size N*n: membership flags and local
    # row numbers are arrays indexed by ``owner_idx * n + global_node``, so no state
    # needs resetting between owners and every lookup is one fancy index.
    g = np.asarray([index[o] for o in owners], dtype=np.int64)
    deg = indptr[g + 1] - indptr[g]
    rc = deg + 1  # fully-visible rows per owner: the owner plus its one-hop set
    rows_all = np.empty(int(rc.sum()), dtype=np.int64)
    rc_off = np.cumsum(rc) - rc
    rows_all[rc_off] = g
    onemask = np.ones(rows_all.size, dtype=bool)
    onemask[rc_off] = False
    one_slots = np.repeat(indptr[g], deg) + seg_arange(deg)
    rows_all[onemask] = indices[one_slots]
    owner_of_row = np.repeat(np.arange(N, dtype=np.int64), rc)

    rdeg = indptr[rows_all + 1] - indptr[rows_all]
    slots = np.repeat(indptr[rows_all], rdeg) + seg_arange(rdeg)
    srcs = np.repeat(rows_all, rdeg)
    dsts = indices[slots]
    edge_owner = np.repeat(owner_of_row, rdeg)

    member2d = np.zeros(N * n, dtype=bool)
    member2d[owner_of_row * n + rows_all] = True
    dst_keys = edge_owner * n + dsts
    in_rows = member2d[dst_keys]
    two2d = np.zeros(N * n, dtype=bool)
    two2d[dst_keys[~in_rows]] = True
    # Keys sort by owner first, node second: the scan yields each owner's two-hop
    # set contiguously and already sorted (global index order == identifier order).
    two_keys = np.flatnonzero(two2d)
    two_owner = two_keys // n
    two_gid = two_keys - two_owner * n
    tc = np.bincount(two_owner, minlength=N).astype(np.int64)

    V = rc + tc
    off = np.cumsum(V) - V  # per-owner row offsets
    rows_total = int(V.sum())
    local2d = np.zeros(N * n, dtype=np.int64)  # owner rows keep local index 0
    local2d[np.repeat(np.arange(N, dtype=np.int64), deg) * n + rows_all[onemask]] = (
        seg_arange(deg) + 1
    )
    local2d[two_keys] = seg_arange(tc) + np.repeat(deg + 1, tc)

    ebase = off[edge_owner]
    src_lo = local2d[edge_owner * n + srcs] + ebase
    dst_lo = local2d[dst_keys] + ebase
    w = w_slots[slots]
    rev = ~in_rows  # destination is a two-hop member: mirror the direction
    src_full = np.concatenate((src_lo, dst_lo[rev]))
    dst_full = np.concatenate((dst_lo, src_lo[rev]))
    w_full = np.concatenate((w, w[rev]))

    members_all = np.empty(rows_total, dtype=np.int64)
    members_all[np.repeat(off, rc) + seg_arange(rc)] = rows_all
    members_all[np.repeat(off + rc, tc) + seg_arange(tc)] = two_gid
    off_l = off.tolist()
    deg_l = deg.tolist()
    bounds = np.concatenate((off, [rows_total])).tolist()
    meta = [
        (owners[i], off_l[i], members_all[bounds[i] : bounds[i + 1]], deg_l[i])
        for i in range(N)
    ]
    return _Stack(
        src=src_full,
        dst=dst_full,
        w=w_full,
        owner_rows=off,
        meta=meta,
        rows=rows_total,
    )


def _relax_to_fixpoint(stack: _Stack):
    """Additive labels + reachability over the stacked windows (see module docstring).

    Edges are grouped by destination once (a stable argsort) so each Jacobi sweep is a
    gather + one float addition per edge + segmented ``minimum.reduceat`` instead of the
    unbuffered ``np.minimum.at`` scatter.  ``min`` over floats is order-independent, so
    regrouping the candidates changes nothing about the converged labels: every
    candidate is still the same single ``dist[u] + w`` double addition.
    """
    dist = np.full(stack.rows, np.inf, dtype=np.float64)
    reached = np.zeros(stack.rows, dtype=bool)
    if stack.owner_rows.size:
        dist[stack.owner_rows] = 0.0
        reached[stack.owner_rows] = True
    if not stack.src.size:
        return dist, reached
    by_dst = np.argsort(stack.dst, kind="stable")
    src = stack.src[by_dst]
    dst = stack.dst[by_dst]
    w = stack.w[by_dst]
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    group_dst = dst[starts]
    if np.isfinite(w).all():
        # All-finite weights: a node is reached exactly when its label is finite, so
        # reachability needs no tracking of its own inside the sweep loop.
        while True:
            cand = dist[src] + w  # the one scalar-identical float addition per edge
            seg_min = np.minimum.reduceat(cand, starts)
            old_dist = dist[group_dst]
            new_dist = np.minimum(old_dist, seg_min)
            if not (new_dist < old_dist).any():
                break
            dist[group_dst] = new_dist
        return dist, np.isfinite(dist) | reached
    while True:
        with np.errstate(invalid="ignore"):
            cand = dist[src] + w  # the one scalar-identical float addition per edge
            seg_min = np.minimum.reduceat(cand, starts)
        seg_reach = np.logical_or.reduceat(reached[src], starts)
        old_dist = dist[group_dst]
        old_reach = reached[group_dst]
        new_dist = np.minimum(old_dist, seg_min)
        changed = (new_dist < old_dist).any() or (seg_reach & ~old_reach).any()
        if not changed:
            break
        dist[group_dst] = new_dist
        reached[group_dst] = old_reach | seg_reach
    return dist, reached


# ---------------------------------------------------------------------- additive kernel


def _batched_owner_dijkstra(
    ng: NetworkGraph, views: List, metric: Metric, w_slots
) -> Dict[NodeId, Dict[NodeId, FirstHopResult]]:
    indptr = ng.indptr
    rel_tol = metric.rel_tol
    worst = metric.worst
    nodes = ng.nodes
    index = ng.index
    stack = _stack_windows(ng, [view.owner for view in views], w_slots)
    dist, reached = _relax_to_fixpoint(stack)

    # Seed bits: the direct link (owner, n_i) is tight for bit i exactly per the scalar
    # seed test.  Bit i = the i-th *sorted* one-hop neighbor (CSR rows are sorted); the
    # scalar code numbers bits in frozenset-iteration order instead, but decoded
    # first-hop *sets* are bit-order independent.
    lanes = 1
    for _owner, _off, _members, deg in stack.meta:
        lanes = max(lanes, (deg + 63) // 64)
    masks = np.zeros((stack.rows, lanes), dtype=np.uint64)
    s_rows_parts: List[np.ndarray] = []
    s_bits_parts: List[np.ndarray] = []
    s_links_parts: List[np.ndarray] = []
    for owner, off, _members, deg in stack.meta:
        if deg == 0:
            continue
        g = index[owner]
        s_rows_parts.append(np.arange(off + 1, off + 1 + deg, dtype=np.int64))
        s_bits_parts.append(np.arange(deg, dtype=np.int64))
        s_links_parts.append(w_slots[indptr[g] : indptr[g] + deg])
    if s_rows_parts:
        s_rows = np.concatenate(s_rows_parts)
        s_bits = np.concatenate(s_bits_parts)
        s_links = np.concatenate(s_links_parts)
        d = dist[s_rows]
        with np.errstate(invalid="ignore"):
            diff = np.abs(s_links - d)
            larger = np.maximum(s_links, d)
            tight = reached[s_rows] & ((diff <= rel_tol * larger) | (diff <= rel_tol))
        r = s_rows[tight]
        b = s_bits[tight]
        np.bitwise_or.at(
            masks, (r, b >> 6), np.uint64(1) << (b & 63).astype(np.uint64)
        )

    # Tight propagation edges: both endpoints reached, neither the owner row, and the
    # scalar one-sided slack test does not reject (NaN comparisons are False, matching
    # the scalar inf-label semantics).
    src, dst, w = stack.src, stack.dst, stack.w
    if src.size:
        is_owner = np.zeros(stack.rows, dtype=bool)
        is_owner[stack.owner_rows] = True
        usable = reached[src] & reached[dst] & ~is_owner[src] & ~is_owner[dst]
        u_src = src[usable]
        u_dst = dst[usable]
        with np.errstate(invalid="ignore"):
            cand = dist[u_src] + w[usable]
            diff = cand - dist[u_dst]
            skip = (diff > rel_tol) & (diff > rel_tol * cand)
        t_src = u_src[~skip]
        t_dst = u_dst[~skip]
        if t_src.size:
            # Group the (fixed) tight-edge set by destination once; each sweep is a
            # gather + segmented or.reduceat (an or-monotone fixpoint is unique, so the
            # sweep schedule cannot change the converged masks).
            by_dst = np.argsort(t_dst, kind="stable")
            t_src = t_src[by_dst]
            t_dst = t_dst[by_dst]
            t_starts = np.flatnonzero(np.r_[True, t_dst[1:] != t_dst[:-1]])
            t_group = t_dst[t_starts]
            while True:
                seg_or = np.bitwise_or.reduceat(masks[t_src], t_starts, axis=0)
                old = masks[t_group]
                new = old | seg_or
                if (new == old).all():
                    break
                masks[t_group] = new

    # Decode per owner, in known_targets() (sorted-identifier) order.  Global index
    # order == identifier order, so merge-sorting each view's (individually sorted)
    # one- and two-hop blocks reproduces known_targets() exactly; one argsort over
    # view-segregated keys replaces a per-view argsort call.
    n = len(nodes)
    counts = [members.size - 1 for (_o, _off, members, _d) in stack.meta]
    if stack.meta:
        keys = np.concatenate(
            [
                members[1:] + i * n
                for i, (_o, _off, members, _d) in enumerate(stack.meta)
            ]
        )
        order_all = np.argsort(keys, kind="stable").tolist()
    else:
        order_all = []
    results: Dict[NodeId, Dict[NodeId, FirstHopResult]] = {}
    block = 0
    for view, (owner, off, members, deg), count in zip(views, stack.meta, counts):
        V = members.size
        dist_l = dist[off : off + V].tolist()
        reach_l = reached[off : off + V].tolist()
        mask_l = _combine_lanes(masks[off : off + V], lanes)
        members_l = members.tolist()
        bit_owner = [nodes[g] for g in members_l[1 : deg + 1]]
        decoded: Dict[int, frozenset] = {}
        res: Dict[NodeId, FirstHopResult] = {}
        for p in order_all[block : block + count]:
            li = p - block + 1
            target = nodes[members_l[li]]
            m = mask_l[li]
            if m and reach_l[li]:
                fh = decoded.get(m)
                if fh is None:
                    sel = []
                    mm = m
                    while mm:
                        low = mm & -mm
                        sel.append(bit_owner[low.bit_length() - 1])
                        mm ^= low
                    fh = frozenset(sel)
                    decoded[m] = fh
                res[target] = FirstHopResult(
                    target=target, best_value=dist_l[li], first_hops=fh
                )
            else:
                res[target] = FirstHopResult(
                    target=target, best_value=worst, first_hops=frozenset()
                )
        block += count
        results[view.owner] = res
    return results


def _combine_lanes(rows: np.ndarray, lanes: int) -> List[int]:
    """uint64 lane matrix -> per-row Python int bitmasks."""
    combined = rows[:, 0].tolist()
    for lane in range(1, lanes):
        shift = 64 * lane
        combined = [m | (c << shift) for m, c in zip(combined, rows[:, lane].tolist())]
    return combined


# ---------------------------------------------------------------------- concave kernel


def _batched_bottleneck_forest(
    ng: NetworkGraph, views: List, metric: Metric
) -> Dict[NodeId, Dict[NodeId, FirstHopResult]]:
    indptr, indices, slot_edge = ng.indptr, ng.indices, ng.slot_edge
    index = ng.index
    nodes = ng.nodes
    w_edges = ng.edge_values(metric)
    w_slots = ng.slot_values(metric)
    order = ng.sorted_edges(metric)
    edge_u, edge_v = ng.edge_u, ng.edge_v
    n = len(nodes)
    m = int(w_edges.size)
    rel_tol = metric.rel_tol
    worst = metric.worst
    isclose = math.isclose
    visible = np.zeros(m, dtype=bool)
    member = np.zeros(n, dtype=bool)
    local = np.zeros(n, dtype=np.int64)
    results: Dict[NodeId, Dict[NodeId, FirstHopResult]] = {}
    for view in views:
        g = index[view.owner]
        one = indices[indptr[g] : indptr[g + 1]]
        deg = int(one.size)
        res: Dict[NodeId, FirstHopResult] = {}
        if deg == 0:
            # An isolated owner: every known target (normally none) is unreachable.
            for target in view.known_targets():
                res[target] = FirstHopResult(
                    target=target, best_value=worst, first_hops=frozenset()
                )
            results[view.owner] = res
            continue
        slots, _ = row_slots(indptr, one)
        dsts = indices[slots]
        keep = dsts != g  # owner-free: drop the back-links to the owner
        dsts_k = dsts[keep]
        # Sorted unique two-hop members via a flag scan (global index order ==
        # identifier order): mark every owner-free destination, unmark the one-hop
        # rows, and what is left is exactly the two-hop set, already sorted.
        member[dsts_k] = True
        member[one] = False
        two = np.flatnonzero(member)
        member[two] = False
        local[one] = np.arange(deg, dtype=np.int64)
        local[two] = np.arange(deg, deg + two.size, dtype=np.int64)
        V = deg + int(two.size)

        # Kruskal over the shared best-first order, filtered to this view's visible
        # owner-free edges (every such edge has >= 1 endpoint among the one-hop rows).
        eids = slot_edge[slots[keep]]
        visible[eids] = True
        vis_sorted = order[visible[order]]
        lu = local[edge_u[vis_sorted]].tolist()
        lv = local[edge_v[vis_sorted]].tolist()
        lw = w_edges[vis_sorted].tolist()
        visible[eids] = False
        # Kruskal with a merge ("reconstruction") tree: leaves are the V window-local
        # nodes; each accepted edge appends an internal node carrying the edge's weight.
        # Edges arrive best-first, so the accepted edge is the *worst* link on the
        # (unique) forest path between the two merged components -- the bottleneck
        # between any two leaves is therefore exactly the weight of their lowest common
        # ancestor in this tree (an exact link weight, no arithmetic, so the values
        # equal the scalar forest-DFS floats bit for bit).  Leaves carry the metric
        # identity (+inf): the neighbor-is-target diagonal falls out automatically.
        # Union-find with direct root pointers and small-to-large relabeling: the
        # accept/reject test per edge is two list lookups, and relabel work totals
        # O(V log V) per view.  Connectivity (and hence the accepted edge sequence
        # and the merge tree) is identical to any other union-find schedule.
        parent = list(range(V))  # node -> its component's current root, always direct
        comp_members: List[Optional[List[int]]] = [[i] for i in range(V)]
        comp_tree = list(range(V))  # component root -> its current merge-tree node
        tparent: List[int] = list(range(V))
        tweight: List[float] = [math.inf] * V
        accepted = 0
        limit = V - 1
        for a, b, value in zip(lu, lv, lw):
            ra = parent[a]
            rb = parent[b]
            if ra == rb:
                continue
            ma = comp_members[ra]
            mb = comp_members[rb]
            if len(ma) > len(mb):
                ra, rb = rb, ra
                ma, mb = mb, ma
            for x in ma:
                parent[x] = rb
            mb.extend(ma)
            comp_members[ra] = None
            t = len(tparent)
            tparent.append(t)
            tweight.append(value)
            tparent[comp_tree[ra]] = t
            tparent[comp_tree[rb]] = t
            comp_tree[rb] = t
            accepted += 1
            if accepted == limit:
                break

        # B[t, i] = bottleneck of the forest path from one-hop neighbor i to node t
        # (-inf = unreachable, +inf on the diagonal), as the LCA weight in the merge
        # tree, computed for all (target, neighbor) pairs at once by binary lifting.
        T = len(tparent)
        up0 = np.asarray(tparent, dtype=np.int64)
        tw = np.asarray(tweight, dtype=np.float64)
        # Internal nodes are appended after their children, so every non-root parent id
        # exceeds the child's: one descending pass settles depths.
        depth_l = [0] * T
        maxd = 0
        for x in range(T - 1, -1, -1):
            p = tparent[x]
            if p != x:
                d = depth_l[p] + 1
                depth_l[x] = d
                if d > maxd:
                    maxd = d
        depth = np.asarray(depth_l, dtype=np.int64)
        # Lifts of up to 2^ceil(log2(maxd)) reach any ancestor: both the depth
        # equalization (jumps <= maxd) and the descent start at most maxd below root.
        levels = max(1, maxd.bit_length())
        ups = [up0]
        for _ in range(1, levels):
            ups.append(ups[-1][ups[-1]])
        # Both endpoints ride one (2, V, deg) array so every lifting step is a single
        # fancy-index + where instead of two.
        t = np.empty((2, V, deg), dtype=np.int64)
        t[0] = np.arange(V, dtype=np.int64)[:, None]
        t[1] = np.arange(deg, dtype=np.int64)[None, :]
        diff = depth[t[0]] - depth[t[1]]
        amt = np.empty((2, V, deg), dtype=np.int64)
        np.maximum(diff, 0, out=amt[0])  # lift the deeper endpoint by |depth gap|
        np.maximum(-diff, 0, out=amt[1])
        for k in range(levels):
            t = np.where((amt & (1 << k)) != 0, ups[k][t], t)
        for k in range(levels - 1, -1, -1):
            u = ups[k][t]
            t = np.where(u[0] != u[1], u, t)
        ta, tb = t[0], t[1]
        same = ta == tb
        lca = np.where(same, ta, up0[ta])
        connected = same | (up0[ta] == up0[tb])
        B = np.where(connected, tw[lca], _NEG_INF)
        diag = np.arange(deg)

        direct = w_slots[indptr[g] : indptr[g] + deg]  # owner row, sorted-neighbor order
        M = np.minimum(B, direct[None, :])
        M[diag, diag] = direct  # neighbor == target: the direct link, no bottleneck leg
        best = M.max(axis=1)
        best_col = best[:, None]
        with np.errstate(invalid="ignore"):
            finite = np.isfinite(M) & np.isfinite(best_col)
            close = np.abs(M - best_col) <= np.maximum(
                rel_tol * np.maximum(np.abs(M), np.abs(best_col)), rel_tol
            )
        eqmask = (M == best_col) | (finite & close)
        # A candidate that is a *different float* from the maximum yet within tolerance
        # makes Metric.optimum's first-wins scan order-dependent: replay the scalar scan
        # for exactly those targets.
        rare = (eqmask & (M != best_col)).any(axis=1)

        members = np.concatenate((one, two))
        members_l = members.tolist()
        order_t = np.argsort(members, kind="stable").tolist() if V else []
        best_l = best.tolist()
        rare_l = rare.tolist()
        one_nodes = [nodes[i] for i in members_l[:deg]]
        # One nonzero pass over the whole (V, deg) tie mask; per-target column runs
        # are then plain list slices (eq_rows comes out row-major, i.e. sorted).
        eq_rows, eq_cols = np.nonzero(eqmask)
        row_bounds = np.searchsorted(eq_rows, np.arange(V + 1)).tolist()
        eq_cols_l = eq_cols.tolist()
        decoded: Dict[tuple, frozenset] = {}  # tie columns -> first-hop set, per view
        col_of = None
        for p in order_t:
            target = nodes[members_l[p]]
            b_val = best_l[p]
            if b_val == _NEG_INF:
                res[target] = FirstHopResult(
                    target=target, best_value=worst, first_hops=frozenset()
                )
            elif rare_l[p]:
                if col_of is None:
                    col_of = {node: c for c, node in enumerate(one_nodes)}
                row = M[p].tolist()
                hops: List[NodeId] = []
                values: List[float] = []
                for neighbor in view.one_hop:  # the scalar scan order
                    value = row[col_of[neighbor]]
                    if value == _NEG_INF:
                        continue
                    hops.append(neighbor)
                    values.append(value)
                b_val = metric.optimum(values)
                fh = frozenset(
                    neighbor
                    for neighbor, value in zip(hops, values)
                    if value == b_val
                    or isclose(value, b_val, rel_tol=rel_tol, abs_tol=rel_tol)
                )
                res[target] = FirstHopResult(target=target, best_value=b_val, first_hops=fh)
            else:
                key = tuple(eq_cols_l[row_bounds[p] : row_bounds[p + 1]])
                fh = decoded.get(key)
                if fh is None:
                    fh = frozenset(one_nodes[c] for c in key)
                    decoded[key] = fh
                res[target] = FirstHopResult(target=target, best_value=b_val, first_hops=fh)
        results[view.owner] = res
    return results
