"""Batched numpy solver kernels over the shared network-level CSR.

These kernels compute, for *many owners at once*, exactly what the scalar per-view fast
paths of :mod:`repro.localview.paths` compute for one owner: the
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
``np.add.reduce`` over path weights).  ``tests/test_networkgraph.py`` compares the
decoded labels against the scalar solver with ``==``, not ``approx``.  Link values are
finite, so a window node is reached exactly when its label is.

The tight-edge tests reuse the scalar code's exact float expressions: the seed test
``diff <= rel_tol * larger or diff <= rel_tol`` and the one-sided propagation test
``not (diff > rel_tol and diff > rel_tol * candidate)``, evaluated in float64 exactly
as the scalar code evaluates them.  First-hop sets propagate as per-owner bitmask lanes
(uint64) or-ed to a fixpoint with ``np.bitwise_or.at``; an or-monotone fixpoint is
unique, so Jacobi iteration reaches exactly the scalar worklist's result.

**Concave kernel** (:func:`_batched_bottleneck_forest`).  Bottleneck values carry no
arithmetic -- every value is an actual link weight -- and all maximum-bottleneck
spanning forests of a graph give identical pairwise bottleneck values.  The kernel
solves the owners in chunks, one pass each.  It cuts every owner's owner-free visible
edges at once and sorts them by owner, then by rank in the shared best-first order
(:meth:`NetworkGraph.sorted_edges`).  One sequential union-find over them (small into
large) keeps each component as its leaves in a row, with the weight of the merge that
joined two neighbouring leaves between them (a *gap*; ``-inf`` between components).
Edges arrive best-first, so every gap between two leaves was created inside the
smallest component holding both, and the worst of those gaps is the merge that joined
them: ``bottleneck(a, b)`` is exactly the minimum of the gaps between their positions.
One sparse table of range minima answers every ``(target, one-hop neighbour)`` pair
with two lookups; the best value, the tie masks and the near-tie flags are segmented
reductions over the flat pair array.  Chunks are cut by an upper bound on each owner's
pair count read off the CSR -- its degree times one plus the summed degrees of its
one-hop rows -- at ``PAIR_BUDGET`` pairs (an owner above it gets a chunk of its own), so
the transient arrays scale with the budget, not with the owners a call solves.  Where a
row has no near-tie, the float maximum provably equals the scalar first-wins scan's
result.

What the kernels batch, and which owners they answer, is the one admission rule of
:func:`~repro.localview.networkgraph.kernel_kind`; the scalar path answers the rest.

Both kernels return one :class:`~repro.localview.paths.TargetRows` per owner they
answer: each target's best value and its tie mask over the owner's sorted one-hop
neighbours, the one-hop block then the two-hop block, each sorted -- the window order
the kernels solve in.  The rows are slices of each pass's ``.tolist()`` output (an
exact bit-preserving conversion), so downstream consumers never see numpy scalars, and
no per-target object is built: FNBP selects on the masks, and
:func:`~repro.localview.paths.all_first_hops` decodes them on request.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional

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
from repro.obs import runtime as obs
from repro.utils.ids import NodeId

_NEG_INF = -math.inf
#: Upper bound on the (target, one-hop neighbour) pairs one concave-kernel pass holds;
#: bounds its transient arrays (and so peak memory).
PAIR_BUDGET = 1 << 16


def batched_all_first_hops(
    ng: NetworkGraph, views: List, metric: Metric
) -> Optional[Dict[NodeId, TargetRows]]:
    """``all_first_hops`` for the views the kernels replay, or None when not batchable.

    ``views`` must all be attached to ``ng`` (their declared one-/two-hop sets are then
    windows of its rows by construction).  Returns ``{owner: TargetRows}`` encoding
    exactly the payload the scalar dispatch produces, for every owner the kernel answers
    (an owner with a near-tie row is missing), or None when :func:`kernel_kind` does not
    admit ``metric`` on ``ng``; callers then fall back to the scalar path (which is
    trivially bit-identical to itself).

    Telemetry (when enabled): each batched solve counts one
    ``kernel.batched_dispatches`` plus ``kernel.batched_views`` per owner it answered;
    an unbatchable combination counts ``kernel.unbatchable_groups`` (its views then
    surface as ``kernel.scalar_dispatches`` when the scalar auto path solves them).
    """
    kind = kernel_kind(ng, metric)
    if kind is None:
        obs.add("kernel.unbatchable_groups")
        return None
    solve = _batched_owner_dijkstra if kind == "additive" else _batched_bottleneck_forest
    result = solve(ng, views, metric)
    obs.add("kernel.batched_dispatches")
    obs.add("kernel.batched_views", len(result))
    return result


# ---------------------------------------------------------------------- window stacking


class _Windows(NamedTuple):
    """Every owner's two-hop window, cut for a batch of owner rows at once.

    Window-local numbering: the owner is 0, its sorted one-hop rows ``1..deg``, its
    sorted two-hop members ``deg+1..deg+tc``.  The slot arrays cover every CSR slot of
    the owner's and the one-hop rows (those rows are fully visible in the window).
    """

    deg: np.ndarray  # int64 one-hop count per owner
    tc: np.ndarray  # int64 two-hop count per owner
    one: np.ndarray  # int64 one-hop rows, owner by owner, each block sorted
    two: np.ndarray  # int64 two-hop rows, owner by owner, each block sorted
    slots: np.ndarray  # int64 CSR slot
    slot_owner: np.ndarray  # int64 owner position (in the batch) of each slot
    src_local: np.ndarray  # int64 window-local index of the slot's row
    dst_local: np.ndarray  # int64 window-local index of the slot's destination
    dst_in_rows: np.ndarray  # bool: the destination is the owner or a one-hop row


def _windows(ng: NetworkGraph, g: np.ndarray) -> _Windows:
    """Cut the windows of the owner rows ``g``, vectorized over all of them.

    Per-owner node sets live in an (owner, node) key space of size ``N*n``: membership
    flags and local numbers are arrays indexed by ``owner_pos * n + global_node``, so no
    state needs resetting between owners and every lookup is one fancy index.
    """
    indptr, indices = ng.indptr, ng.indices
    n = len(ng.nodes)
    N = g.size
    owner_slots, deg = row_slots(indptr, g)
    rc = deg + 1  # fully-visible rows per owner: the owner plus its one-hop set
    one = indices[owner_slots]
    owner_of_row = np.repeat(np.arange(N, dtype=np.int64), rc)
    local_of_row = seg_arange(rc)
    rows = np.repeat(g, rc)  # each owner's row, then its one-hop rows over local 1..deg
    rows[local_of_row > 0] = one

    slots, rdeg = row_slots(indptr, rows)
    slot_owner = np.repeat(owner_of_row, rdeg)
    row_keys = owner_of_row * n + rows
    member2d = np.zeros(N * n, dtype=bool)
    member2d[row_keys] = True
    dst_keys = slot_owner * n + indices[slots]
    dst_in_rows = member2d[dst_keys]
    two2d = np.zeros(N * n, dtype=bool)
    two2d[dst_keys[~dst_in_rows]] = True
    # Keys sort by owner first, node second: the scan yields each owner's two-hop
    # set contiguously and already sorted (global index order == identifier order).
    two_keys = np.flatnonzero(two2d)
    two_owner = two_keys // n
    tc = np.bincount(two_owner, minlength=N).astype(np.int64)

    local2d = np.zeros(N * n, dtype=np.int64)
    local2d[row_keys] = local_of_row
    local2d[two_keys] = seg_arange(tc) + np.repeat(rc, tc)
    return _Windows(
        deg=deg,
        tc=tc,
        one=one,
        two=two_keys - two_owner * n,
        slots=slots,
        slot_owner=slot_owner,
        src_local=np.repeat(local_of_row, rdeg),
        dst_local=local2d[dst_keys],
        dst_in_rows=dst_in_rows,
    )


class _Stack(NamedTuple):
    """All owners' windows concatenated into one flat row space."""

    src: np.ndarray  # int64 directed-edge source rows
    dst: np.ndarray  # int64 directed-edge destination rows
    w: np.ndarray  # float64 directed-edge weights
    owner_rows: np.ndarray  # int64, one stacked row per owner
    members: np.ndarray  # int64 CSR row of each stacked row
    meta: list  # [(owner, offset, members_global, one_hop_count)]
    rows: int  # total stacked row count
    g: np.ndarray  # int64 CSR row of each owner
    deg: np.ndarray  # int64 one-hop count of each owner


def _stack_windows(ng: NetworkGraph, owners: Iterable[NodeId], w_slots) -> _Stack:
    """Cut every owner's two-hop window and stack them with disjoint row offsets.

    Local rows are ``[owner, sorted one-hop, sorted two-hop]``.  Directed edges: every
    slot of the owner's and the one-hop rows (those rows are fully visible in the view),
    plus the reverse direction of slots whose destination is a two-hop member (the
    two-hop row itself is only partially visible, so its in-window directions must be
    mirrored rather than gathered from its own row).
    """
    index = ng.index
    owners = list(owners)
    N = len(owners)
    empty_i = np.empty(0, dtype=np.int64)
    if N == 0:
        return _Stack(empty_i, empty_i, np.empty(0), empty_i, empty_i, [], 0, empty_i, empty_i)
    g = np.asarray([index[o] for o in owners], dtype=np.int64)
    win = _windows(ng, g)
    rc = win.deg + 1
    tc = win.tc
    V = rc + tc
    off = np.cumsum(V) - V  # per-owner row offsets
    rows_total = int(V.sum())

    ebase = off[win.slot_owner]
    src_lo = win.src_local + ebase
    dst_lo = win.dst_local + ebase
    w = w_slots[win.slots]
    rev = ~win.dst_in_rows  # destination is a two-hop member: mirror the direction
    src_full = np.concatenate((src_lo, dst_lo[rev]))
    dst_full = np.concatenate((dst_lo, src_lo[rev]))
    w_full = np.concatenate((w, w[rev]))

    members_all = np.empty(rows_total, dtype=np.int64)
    members_all[off] = g
    members_all[np.repeat(off + 1, win.deg) + seg_arange(win.deg)] = win.one
    members_all[np.repeat(off + rc, tc) + seg_arange(tc)] = win.two
    off_l = off.tolist()
    deg_l = win.deg.tolist()
    bounds = np.concatenate((off, [rows_total])).tolist()
    meta = [
        (owners[i], off_l[i], members_all[bounds[i] : bounds[i + 1]], deg_l[i])
        for i in range(N)
    ]
    return _Stack(src_full, dst_full, w_full, off, members_all, meta, rows_total, g, win.deg)


def _relax_to_fixpoint(stack: _Stack) -> np.ndarray:
    """Additive labels over the stacked windows, ``inf`` where unreached (see module
    docstring).

    Edges are grouped by destination once (a stable argsort) so each Jacobi sweep is a
    gather + one float addition per edge + segmented ``minimum.reduceat`` instead of the
    unbuffered ``np.minimum.at`` scatter.  ``min`` over floats is order-independent, so
    regrouping the candidates changes nothing about the converged labels: every
    candidate is still the same single ``dist[u] + w`` double addition.
    """
    dist = np.full(stack.rows, np.inf, dtype=np.float64)
    dist[stack.owner_rows] = 0.0
    if not stack.src.size:
        return dist
    by_dst = np.argsort(stack.dst, kind="stable")
    src = stack.src[by_dst]
    dst = stack.dst[by_dst]
    w = stack.w[by_dst]
    starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
    group_dst = dst[starts]
    while True:
        cand = dist[src] + w  # the one scalar-identical float addition per edge
        seg_min = np.minimum.reduceat(cand, starts)
        old_dist = dist[group_dst]
        new_dist = np.minimum(old_dist, seg_min)
        if not (new_dist < old_dist).any():
            return dist
        dist[group_dst] = new_dist


# ---------------------------------------------------------------------- additive kernel


def _batched_owner_dijkstra(
    ng: NetworkGraph, views: List, metric: Metric
) -> Dict[NodeId, TargetRows]:
    rel_tol = metric.rel_tol
    w_slots = ng.slot_values(metric)
    stack = _stack_windows(ng, [view.owner for view in views], w_slots)
    dist = _relax_to_fixpoint(stack)
    reached = np.isfinite(dist)

    # Seed bits: the direct link (owner, n_i) is tight for bit i exactly per the scalar
    # seed test.  Bit i = the i-th *sorted* one-hop neighbor (CSR rows are sorted); the
    # scalar code numbers bits in frozenset-iteration order instead, but decoded
    # first-hop *sets* are bit-order independent.
    lanes = max(1, (int(stack.deg.max(initial=0)) + 63) // 64)
    masks = np.zeros((stack.rows, lanes), dtype=np.uint64)
    s_bits = seg_arange(stack.deg)
    s_rows = np.repeat(stack.owner_rows + 1, stack.deg) + s_bits
    s_links = w_slots[np.repeat(ng.indptr[stack.g], stack.deg) + s_bits]
    d = dist[s_rows]
    diff = np.abs(s_links - d)
    larger = np.maximum(s_links, d)
    tight = (diff <= rel_tol * larger) | (diff <= rel_tol)
    r = s_rows[tight]
    b = s_bits[tight]
    np.bitwise_or.at(masks, (r, b >> 6), np.uint64(1) << (b & 63).astype(np.uint64))

    # Tight propagation edges: both endpoints reached, neither the owner row, and the
    # scalar one-sided slack test does not reject.
    src, dst, w = stack.src, stack.dst, stack.w
    if src.size:
        is_owner = np.zeros(stack.rows, dtype=bool)
        is_owner[stack.owner_rows] = True
        usable = reached[src] & reached[dst] & ~is_owner[src] & ~is_owner[dst]
        u_src = src[usable]
        u_dst = dst[usable]
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

    # A target is reachable when it is reached with a first hop; otherwise its best
    # value is the metric's worst and its mask 0.  Each owner's rows past its own are
    # its targets in window order: the one-hop block, then the two-hop block.
    ok = reached & masks.any(axis=1)
    masks[~ok] = 0
    return _rows_by_owner(
        ng,
        stack.members,
        np.where(ok, dist, metric.worst).tolist(),
        combine_lanes(masks),
        [(owner, off + 1, members.size - 1, deg) for owner, off, members, deg in stack.meta],
    )


def _rows_by_owner(ng, members, best_l, mask_l, blocks) -> Dict[NodeId, TargetRows]:
    """``{owner: TargetRows}`` from a pass's flat rows; ``blocks`` lists each owner's
    ``(owner, first row, row count, one-hop count)``."""
    nodes = ng.nodes
    targets = [nodes[x] for x in members.tolist()]
    return {
        owner: TargetRows(
            targets[lo : lo + deg],
            targets[lo : lo + count],
            best_l[lo : lo + count],
            mask_l[lo : lo + count],
        )
        for owner, lo, count, deg in blocks
    }


# ---------------------------------------------------------------------- concave kernel


def _batched_bottleneck_forest(
    ng: NetworkGraph, views: List, metric: Metric
) -> Dict[NodeId, TargetRows]:
    indptr, indices = ng.indptr, ng.indices
    index = ng.index
    g = np.asarray([index[view.owner] for view in views], dtype=np.int64)
    # Pair bound per owner: its one-hop count times one plus the summed degrees of its
    # one-hop rows, which bounds the window (every two-hop member is some slot of them).
    slots, deg = row_slots(indptr, g)
    hop_degree = np.diff(indptr)[indices[slots]]
    summed = np.bincount(np.repeat(np.arange(g.size), deg), weights=hop_degree, minlength=g.size)
    bounds = (deg * (1 + summed)).tolist()
    order = ng.sorted_edges(metric)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    w_slots = ng.slot_values(metric)
    results: Dict[NodeId, TargetRows] = {}
    start = 0
    total = 0.0
    for i, bound in enumerate(bounds):
        if total + bound > PAIR_BUDGET and i > start:
            _bottleneck_chunk(ng, views[start:i], g[start:i], metric, w_slots, rank, results)
            start, total = i, 0.0
        total += bound
    if start < len(views):
        _bottleneck_chunk(ng, views[start:], g[start:], metric, w_slots, rank, results)
    return results


def _bottleneck_chunk(ng, views, g, metric, w_slots, rank, results) -> None:
    """Solve the owner rows ``g`` (of ``views``) in one pass into ``results`` (owners
    with a near-tie row left out)."""
    win = _windows(ng, g)
    deg, tc = win.deg, win.tc
    # Chunk rows: each owner's targets, one-hop then two-hop (window-local index - 1).
    V = deg + tc
    off = np.cumsum(V) - V
    R = int(V.sum())
    # Pair space: row-major (target row, one-hop column) over every owner's rows.
    row_deg = np.repeat(deg, V)
    row_starts = np.cumsum(row_deg) - row_deg
    pcol = seg_arange(row_deg)
    M = _candidate_values(ng, g, win, V, off, row_deg, pcol, w_slots, rank)

    best = np.maximum.reduceat(M, row_starts)
    best_p = np.repeat(best, row_deg)
    eq = values_equal(M, best_p, metric.rel_tol)
    masks = segment_masks(pcol, eq, row_starts)
    # An owner with a near-tie row is left whole to the scalar path (see kernel_kind).
    near = np.logical_or.reduceat(eq & (M != best_p), row_starts)
    skip = np.zeros(g.size, dtype=bool)
    skip[np.repeat(np.arange(g.size, dtype=np.int64), V)[near]] = True

    members = np.empty(R, dtype=np.int64)
    members[np.repeat(off, deg) + seg_arange(deg)] = win.one
    members[np.repeat(off + deg, tc) + seg_arange(tc)] = win.two
    unreachable = best == _NEG_INF
    best[unreachable] = metric.worst
    masks[unreachable] = 0
    blocks = [
        (view.owner, lo, count, d)
        for view, lo, count, d, near_tie in zip(
            views, off.tolist(), V.tolist(), deg.tolist(), skip.tolist()
        )
        if not near_tie
    ]
    results.update(_rows_by_owner(ng, members, best.tolist(), combine_lanes(masks), blocks))


def _candidate_values(ng, g, win, V, off, row_deg, pcol, w_slots, rank) -> np.ndarray:
    """Every pair's candidate ``min(direct(owner, hop), bottleneck(hop, target))``.

    Where the one-hop neighbour is the target itself, the candidate is the direct link.
    """
    pos, gaps = _leaf_order(ng, win, off, int(V.sum()), w_slots, rank)
    pa = np.repeat(pos, row_deg)  # the target's position
    pb = pos[np.repeat(np.repeat(off, V), row_deg) + pcol]  # the one-hop neighbour's
    bottleneck = _range_minima(gaps, pa, pb, int(V.max(initial=1)))
    direct = w_slots[np.repeat(np.repeat(ng.indptr[g], V), row_deg) + pcol]
    return np.where(pa == pb, direct, np.minimum(bottleneck, direct))


def _leaf_order(ng, win, off, R, w_slots, rank):
    """Each chunk row's position in the leaf sequence of its Kruskal forest, and the gaps.

    ``gaps[k]`` separates positions ``k`` and ``k + 1``: the weight of the merge that
    joined them, or ``-inf`` between two components (see the module docstring).
    """
    # The owner-free visible edges, each once: slots of the one-hop rows minus the
    # back-links to the owner; a link between two one-hop rows keeps its src < dst end.
    src_local, dst_local = win.src_local, win.dst_local
    keep = (src_local > 0) & (dst_local > 0) & (~win.dst_in_rows | (src_local < dst_local))
    slots = win.slots[keep]
    base = off[win.slot_owner[keep]] - 1
    by_rank = np.argsort(win.slot_owner[keep] * rank.size + rank[ng.slot_edge[slots]])
    a = (src_local[keep] + base)[by_rank].tolist()
    b = (dst_local[keep] + base)[by_rank].tolist()
    w = w_slots[slots][by_rank].tolist()

    # Each component is a linked list of its rows in leaf order, headed by its root:
    # ``nxt`` links a row to the next one and ``gap`` holds the weight between them,
    # ``parent`` points every row at its root (relabelled small into large), and
    # ``tail``/``size`` describe each root's list.
    parent = list(range(R))
    size = [1] * R
    tail = list(range(R))
    nxt = [-1] * R
    gap = [_NEG_INF] * R
    for x, y, value in zip(a, b, w):
        rx = parent[x]
        ry = parent[y]
        if rx == ry:
            continue
        if size[rx] > size[ry]:
            rx, ry = ry, rx
        row = rx
        while row >= 0:
            parent[row] = ry
            row = nxt[row]
        end = tail[ry]
        nxt[end] = rx  # the smaller list goes after the larger one
        gap[end] = value
        tail[ry] = tail[rx]
        size[ry] += size[rx]
    # Concatenate the lists root by root: each list's last gap stays -inf.
    order: List[int] = []
    for root in range(R):
        if parent[root] == root:
            row = root
            while row >= 0:
                order.append(row)
                row = nxt[row]
    leaves = np.array(order, dtype=np.int64)
    pos = np.empty(R, dtype=np.int64)
    pos[leaves] = np.arange(R, dtype=np.int64)
    return pos, np.array(gap, dtype=np.float64)[leaves]


def _range_minima(gaps: np.ndarray, pa: np.ndarray, pb: np.ndarray, span: int) -> np.ndarray:
    """``min(gaps[lo:hi])`` for each position pair ``lo, hi = sorted((pa, pb))``.

    One sparse table answers every pair with two lookups: level ``j`` holds the minimum
    of ``2**j`` consecutive gaps.  A component's root is one of its rows, so each owner's
    leaves fill one block of its positions and no range is longer than ``span - 1``
    (``span`` = the largest window).  A pair with ``pa == pb`` reads one arbitrary gap.
    """
    R = gaps.size
    table = np.empty((max(1, (span - 1).bit_length()), R), dtype=np.float64)
    table[0] = gaps
    for j in range(1, table.shape[0]):
        h = 1 << (j - 1)
        table[j] = table[j - 1]
        np.minimum(table[j - 1, :-h], table[j - 1, h:], out=table[j, :-h])
    lo = np.minimum(pa, pb)
    hi = np.maximum(np.maximum(pa, pb), lo + 1)
    j = np.frexp(hi - lo)[1] - 1  # floor(log2(range length))
    flat = table.ravel()
    jR = j * R
    return np.minimum(flat[jR + lo], flat[jR + hi - (1 << j)])
