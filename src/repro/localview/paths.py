"""QoS-weighted best paths and first-node-on-best-path sets.

This is the computational core every selection algorithm relies on:

* :func:`best_values_from` -- a single-source "best value" computation (a generalized
  Dijkstra) that works for both metric families: additive metrics run the classical shortest
  path, concave metrics run the widest/bottleneck path.  Both have the label-setting property
  (the popped label is final) because path values never improve when a path is extended.
* :func:`first_hops_to` -- the paper's ``fP_BW(u, v)`` / ``fP_D(u, v)``: the set of the
  owner's one-hop neighbors that are the first node of at least one QoS-optimal simple path
  from the owner to ``v`` inside the owner's local view.
* :func:`enumerate_best_paths` -- explicit enumeration of all optimal simple paths (used by
  tests and the worked-example walk-throughs, not by the selection algorithms themselves).

Graphs are link maps (node -> ``{neighbor: attributes}``), such as :attr:`LocalView.links`
or :attr:`Network.adjacency`.

The first-hop computation uses the decomposition: a simple path from ``u`` starting with the
link ``(u, w)`` has value ``combine(weight(u, w), best(w → v in G \\ {u}))``.  Removing ``u``
is what enforces simplicity at the first hop; for both metric families the best simple path
value equals the best walk value (weights are non-negative / composition is monotone), so the
inner computation can use the label-setting solver.

Every solve runs on a :class:`~repro.localview.compactgraph.CompactGraph` -- a
flat-adjacency snapshot with the metric's link values extracted once and cached per metric
on the view -- instead of traversing a link map on every relaxation.  The original
implementations, which extracted link values on every relaxation, live on in
``tests/nx_oracles.py`` as independent references for the cross-validation tests.

Caching contract: the per-view cache this module consumes -- :meth:`LocalView.compact_graph`
(link values extracted once per metric) -- is keyed by :meth:`Metric.cache_token` and lives
as long as the view, which never changes.  The solvers never mutate the cached structures,
so views (and therefore warm caches) are safe to share across selectors within one process;
worker processes build their own views and thus their own caches.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.localview.compactgraph import (
    CompactGraph,
    best_values,
    combine_and_equality,
    max_bottleneck_forest,
    specialized_kind,
)
from repro.localview.view import Links, LocalView, mask_members
from repro.metrics.base import Metric, MetricKind
from repro.obs import runtime as obs
from repro.utils.ids import NodeId


def best_values_from(
    graph: Links | CompactGraph,
    source: NodeId,
    metric: Metric,
    excluded: Iterable[NodeId] = (),
) -> Dict[NodeId, float]:
    """Best path value from ``source`` to every reachable node of ``graph``.

    ``excluded`` nodes are treated as absent (neither traversed nor reported).  The source
    itself is reported with the metric's identity value.  Unreachable nodes are simply not in
    the returned mapping.  ``graph`` may be an already-built :class:`CompactGraph` for the
    same metric, or a link map, flattened first: a link without the metric's attribute
    raises :class:`KeyError`, whether or not the search would reach it.
    """
    cg = graph if isinstance(graph, CompactGraph) else CompactGraph.from_links(graph, metric)
    index = cg.index
    source_idx = index.get(source)
    if source_idx is None:
        return {}
    blocked = [index[node] for node in excluded if node in index]
    if source_idx in blocked:
        return {}
    values = best_values(cg, source_idx, metric, blocked)
    nodes = cg.nodes
    return {nodes[i]: value for i, value in values.items()}


def best_value_between(
    links: Links,
    source: NodeId,
    target: NodeId,
    metric: Metric,
    excluded: Iterable[NodeId] = (),
) -> float:
    """Best path value between two nodes (the metric's ``worst`` when unreachable)."""
    if target not in links:
        return metric.worst
    return best_values_from(links, source, metric, excluded).get(target, metric.worst)


class FirstHopResult(NamedTuple):
    """The outcome of a first-hop-on-best-path computation for one target.

    A named tuple: the solvers build one per target per view, and it is over twice as
    cheap to build as a frozen dataclass.

    Attributes
    ----------
    target:
        The node the owner wants to reach.
    best_value:
        The QoS value of the best path inside the local view (the metric's ``worst`` when
        the target is unreachable in the view, which cannot happen for genuine one- and
        two-hop neighbors).
    first_hops:
        The paper's ``fP(u, v)``: every one-hop neighbor that starts at least one optimal
        path.  Empty exactly when ``best_value`` is the metric's worst.
    """

    target: NodeId
    best_value: float
    first_hops: FrozenSet[NodeId]

    @property
    def reachable(self) -> bool:
        return bool(self.first_hops)

    def direct_link_is_optimal(self) -> bool:
        """True when the target itself is among the optimal first hops.

        For a one-hop neighbor this means the direct link is (one of) the best path(s), which
        is precisely the condition under which FNBP's step 1 selects nothing.
        """
        return self.target in self.first_hops


class TargetRows:
    """Per-target rows of one view: each target's best value and tie mask.

    ``hops`` are the owner's one-hop neighbours, sorted: bit ``i`` of a mask stands for
    ``hops[i]``.  ``targets``, ``best`` and ``masks`` are parallel lists, one entry per
    one- or two-hop target, in the order the selector reading them scans: FNBP's rows
    (:func:`prime_first_hops`) hold the one-hop block sorted, then the two-hop block
    sorted; topology filtering's (:mod:`repro.localview.filtering`) hold every target by
    identifier.  A target's mask sets the bits of its best first hops, and a mask of 0
    means the target is unreachable, with the metric's worst as its best value.

    The selectors run on the masks alone; :meth:`decode` turns a row back into its
    target, best value and sorted first hops, for a decision trace or for
    :func:`all_first_hops`.
    """

    __slots__ = ("hops", "targets", "best", "masks")

    def __init__(
        self, hops: List[NodeId], targets: List[NodeId], best: List[float], masks: List[int]
    ) -> None:
        self.hops = hops
        self.targets = targets
        self.best = best
        self.masks = masks

    @classmethod
    def encode(
        cls, hops: List[NodeId], entries: Iterable[Tuple[NodeId, float, Iterable[NodeId]]]
    ) -> "TargetRows":
        """Rows from ``(target, best value, first hops)`` entries, in their order."""
        bit_of = {hop: 1 << i for i, hop in enumerate(hops)}
        targets: List[NodeId] = []
        best: List[float] = []
        masks: List[int] = []
        for target, value, first_hops in entries:
            mask = 0
            for hop in first_hops:
                mask |= bit_of[hop]
            targets.append(target)
            best.append(value)
            masks.append(mask)
        return cls(hops, targets, best, masks)

    def members(self, mask: int) -> Tuple[NodeId, ...]:
        """The one-hop neighbours whose bits ``mask`` sets, sorted."""
        return mask_members(self.hops, mask)

    def decode(self, k: int) -> Tuple[NodeId, float, Tuple[NodeId, ...]]:
        """Row ``k`` as its target, best value and sorted first hops."""
        return self.targets[k], self.best[k], self.members(self.masks[k])

    def first_hop_results(self) -> Dict[NodeId, FirstHopResult]:
        """``{target: FirstHopResult}`` in identifier order, as :func:`all_first_hops` returns."""
        results = {}
        for k in sorted(range(len(self.targets)), key=self.targets.__getitem__):
            target, value, first_hops = self.decode(k)
            results[target] = FirstHopResult(target, value, frozenset(first_hops))
        return results


def primed_first_hops(view: LocalView, metric: Metric) -> Optional[TargetRows]:
    """The rows :func:`prime_first_hops` stored on ``view`` for ``metric``, or None.

    A hit counts one ``kernel.primed_hits``.
    """
    rows = view._first_hops.get(metric.cache_token())
    if rows is not None:
        obs.add("kernel.primed_hits")
    return rows


def _one_hop_rows(view: LocalView, cg: CompactGraph) -> List[Tuple[NodeId, int, float]]:
    """``(neighbor, neighbor_index, direct_link_value)`` for every one-hop neighbor.

    Iterates ``view.one_hop``, not the owner's row (a view built from protocol tables
    lists that row in report order): ``Metric.optimum``'s first-wins scans follow it.
    """
    owner_row = dict(cg.adj[cg.index[view.owner]])
    index = cg.index
    return [(neighbor, index[neighbor], owner_row[index[neighbor]]) for neighbor in view.one_hop]


def first_hops_to(view: LocalView, target: NodeId, metric: Metric) -> FirstHopResult:
    """Compute ``fP(u, target)`` -- the first nodes of all QoS-optimal paths in ``G_u``.

    ``target`` must be a known node other than the owner (normally a one- or two-hop
    neighbor).  The result's ``first_hops`` are always one-hop neighbors of the owner.
    """
    owner = view.owner
    if target == owner:
        raise ValueError("the owner trivially reaches itself; first hops are undefined")
    if target not in view:
        return FirstHopResult(target=target, best_value=metric.worst, first_hops=frozenset())

    cg = view.compact_graph(metric)
    combine, values_equal = combine_and_equality(metric)
    identity = metric.identity

    # Best values from the target towards every node, with the owner removed.  Computing from
    # the target side gives, for every neighbor w of the owner, the best value of a
    # (owner-free) path w → target in one solver run instead of one run per neighbor.
    from_target = best_values(cg, cg.index[target], metric, blocked=(cg.index[owner],))

    candidate_values: Dict[NodeId, float] = {}
    for neighbor, neighbor_idx, link_value in _one_hop_rows(view, cg):
        if neighbor == target:
            remainder = identity
        elif neighbor_idx in from_target:
            remainder = from_target[neighbor_idx]
        else:
            continue  # target unreachable from this neighbor without going through the owner
        candidate_values[neighbor] = combine(combine(identity, link_value), remainder)

    if not candidate_values:
        return FirstHopResult(target=target, best_value=metric.worst, first_hops=frozenset())

    best_value = metric.optimum(candidate_values.values())
    first_hops = frozenset(
        neighbor
        for neighbor, value in candidate_values.items()
        if values_equal(value, best_value)
    )
    return FirstHopResult(target=target, best_value=best_value, first_hops=first_hops)


def all_first_hops(view: LocalView, metric: Metric) -> Dict[NodeId, FirstHopResult]:
    """``fP(u, v)`` for every one- and two-hop neighbor ``v`` of the owner.

    Rows :func:`prime_first_hops` stored on the view answer first, decoded (the
    differential suite pins them bit-identical to the scalar solvers).  Otherwise the
    fastest scalar solver sound for the metric runs; all agree with the per-target
    reference (the property-based tests assert it on random topologies):

    * prefix-optimal **additive** metrics: :func:`_all_first_hops_owner_dijkstra`, a
      *single* solver pass rooted at the owner that propagates first-hop sets along tight
      predecessor links.  It needs every prefix of an optimal path to be optimal (see
      :attr:`Metric.prefix_optimal`), which holds for the additive family but *not* for
      composites with a concave component (a suffix's ``min`` can erase a prefix's
      disadvantage, so optimal paths with suboptimal prefixes exist and the propagation
      would miss their first hops).
    * the stock **concave** family (``specialized_kind(metric) == "concave"``):
      :func:`_all_first_hops_bottleneck_forest`, every pairwise bottleneck value through
      a maximum-bottleneck spanning forest of the view without the owner (the classical
      equivalence between widest paths and maximum spanning trees), combined with the
      owner's direct links.
    * anything else (e.g. lexicographic composites mixing the families, for which neither
      single-pass shortcut is sound, or a concave metric with its own ``combine``):
      :func:`first_hops_to` once per target, the direct transcription of the paper's
      definition.

    The fast solvers are what make the paper's densest settings (about 1100 nodes of
    degree 35, each with a local view of well over a hundred nodes) tractable in pure
    Python.
    """
    primed = primed_first_hops(view, metric)
    if primed is not None:
        return primed.first_hop_results()
    obs.add("kernel.scalar_dispatches")
    if metric.kind is MetricKind.ADDITIVE and metric.prefix_optimal:
        return _all_first_hops_owner_dijkstra(view, metric)
    if specialized_kind(metric) == "concave":
        return _all_first_hops_bottleneck_forest(view, metric)
    return {target: first_hops_to(view, target, metric) for target in view.known_targets()}


def _all_first_hops_owner_dijkstra(view: LocalView, metric: Metric) -> Dict[NodeId, FirstHopResult]:
    """Single-source computation of every first-hop set (additive metrics only).

    Correctness sketch: for an additive metric every prefix of an optimal path is optimal, so
    a neighbor ``w`` belongs to ``fP(u, x)`` exactly when some optimal path reaches ``x``
    through a chain of *tight* links (links with ``combine(d(p), weight) = d(x)``) starting
    with the direct link ``(u, w)`` being tight.  Propagating first-hop sets across tight
    links until a fixpoint captures precisely those paths.  (This argument fails for concave
    metrics -- an optimal bottleneck path may have suboptimal prefixes -- which is why those
    use :func:`_all_first_hops_bottleneck_forest` instead.)

    First-hop sets are carried as bitmasks over the one-hop neighbors, so the fixpoint
    iteration works on integer or-operations instead of set unions; for the stock additive
    metrics the tight-link test is inlined float arithmetic (see
    :func:`~repro.localview.compactgraph.float_values_equal` for why ``== or isclose`` is
    exact).
    """
    cg = view.compact_graph(metric)
    adj = cg.adj
    owner_idx = cg.index[view.owner]
    one_hop_rows = _one_hop_rows(view, cg)
    distances = best_values(cg, owner_idx, metric)

    # Distances as a flat list; the owner's slot is cleared so the propagation loop can
    # treat "owner" and "unreachable" uniformly as None.
    dist: List[Optional[float]] = [None] * len(adj)
    for node_idx, value in distances.items():
        dist[node_idx] = value
    owner_distance = dist[owner_idx]
    dist[owner_idx] = None

    masks = [0] * len(adj)
    worklist = deque()

    if specialized_kind(metric) == "additive":
        # Tolerant equality inlined as float arithmetic: for non-negative finite values,
        # math.isclose(a, b, rel_tol=r, abs_tol=r) is |a-b| <= max(r*max(a, b), r).
        rel_tol = metric.rel_tol
        for bit, (_, neighbor_idx, link_value) in enumerate(one_hop_rows):
            target_value = dist[neighbor_idx]
            if target_value is None:
                continue
            diff = link_value - target_value
            if diff < 0.0:
                diff = -diff
            larger = link_value if link_value > target_value else target_value
            if diff <= rel_tol * larger or diff <= rel_tol:
                masks[neighbor_idx] |= 1 << bit
                worklist.append(neighbor_idx)
        while worklist:
            node = worklist.popleft()
            node_value = dist[node]
            node_mask = masks[node]
            for successor, link_value in adj[node]:
                successor_value = dist[successor]
                if successor_value is None:
                    continue
                # candidate >= successor_value (label-setting optimality), so the tolerant
                # equality reduces to a one-sided slack test.
                diff = node_value + link_value - successor_value
                if diff > rel_tol and diff > rel_tol * (node_value + link_value):
                    continue
                merged = masks[successor] | node_mask
                if merged != masks[successor]:
                    masks[successor] = merged
                    worklist.append(successor)
    else:
        combine, values_equal = combine_and_equality(metric)
        identity = metric.identity
        for bit, (_, neighbor_idx, link_value) in enumerate(one_hop_rows):
            if dist[neighbor_idx] is None:
                continue
            if values_equal(combine(identity, link_value), dist[neighbor_idx]):
                masks[neighbor_idx] |= 1 << bit
                worklist.append(neighbor_idx)
        while worklist:
            node = worklist.popleft()
            node_value = dist[node]
            node_mask = masks[node]
            for successor, link_value in adj[node]:
                if dist[successor] is None:
                    continue
                if not values_equal(combine(node_value, link_value), dist[successor]):
                    continue
                merged = masks[successor] | node_mask
                if merged != masks[successor]:
                    masks[successor] = merged
                    worklist.append(successor)

    dist[owner_idx] = owner_distance
    bit_owner: List[NodeId] = [neighbor for neighbor, _, __ in one_hop_rows]
    decoded: Dict[int, FrozenSet[NodeId]] = {}  # masks repeat heavily across targets
    results: Dict[NodeId, FirstHopResult] = {}
    index = cg.index
    worst = metric.worst
    for target in view.known_targets():
        target_idx = index.get(target)
        mask = masks[target_idx] if target_idx is not None else 0
        if mask and dist[target_idx] is not None:
            first_hops = decoded.get(mask)
            if first_hops is None:
                first_hops = frozenset(
                    neighbor for bit, neighbor in enumerate(bit_owner) if mask >> bit & 1
                )
                decoded[mask] = first_hops
            results[target] = FirstHopResult(
                target=target,
                best_value=dist[target_idx],
                first_hops=first_hops,
            )
        else:
            results[target] = FirstHopResult(
                target=target, best_value=worst, first_hops=frozenset()
            )
    return results


def _all_first_hops_bottleneck_forest(view: LocalView, metric: Metric) -> Dict[NodeId, FirstHopResult]:
    """Every first-hop set for the stock concave (bottleneck) family, via a maximum
    spanning forest.

    For bottleneck metrics the best value between two nodes of a graph equals the bottleneck
    along their path in any maximum(-bottleneck) spanning forest.  So: build the owner-free
    spanning forest (Kruskal over the compact graph's edges sorted best-first), then walk
    the forest once *per one-hop neighbor* (bottleneck values are symmetric, and a node has
    fewer one-hop neighbors than known targets) to obtain ``best(n → target in G \\ {u})``
    for every target, and combine with the owner's direct links exactly as in
    :func:`first_hops_to`.  The inner loops inline ``min`` and the tolerant equality (see
    :func:`~repro.localview.compactgraph.float_values_equal`); the best value is
    ``metric.optimum``'s first-wins scan over the one-hop order.
    """
    cg = view.compact_graph(metric)
    node_count = len(cg.adj)
    worst = metric.worst
    if node_count <= 1:
        return {
            target: FirstHopResult(target=target, best_value=worst, first_hops=frozenset())
            for target in view.known_targets()
        }

    forest = max_bottleneck_forest(cg, cg.index[view.owner], metric)
    one_hop_rows = _one_hop_rows(view, cg)

    # Bottleneck from each one-hop neighbor to every node of its forest component (the
    # DFS is rooted at the neighbors, not the targets: same forest paths either way).
    reach: List[Tuple[NodeId, int, float, List[Optional[float]]]] = []
    for neighbor, neighbor_idx, direct in one_hop_rows:
        bottleneck: List[Optional[float]] = [None] * node_count
        bottleneck[neighbor_idx] = metric.identity
        stack = [neighbor_idx]
        while stack:
            node = stack.pop()
            node_value = bottleneck[node]
            for successor, link_value in forest[node]:
                if bottleneck[successor] is None:
                    bottleneck[successor] = link_value if link_value < node_value else node_value
                    stack.append(successor)
        reach.append((neighbor, neighbor_idx, direct, bottleneck))

    results: Dict[NodeId, FirstHopResult] = {}
    index = cg.index
    rel_tol = metric.rel_tol
    isclose = math.isclose
    unreachable = FirstHopResult  # local alias keeps the loop body short
    for target in view.known_targets():
        target_idx = index.get(target)
        if target_idx is None:
            results[target] = unreachable(target=target, best_value=worst, first_hops=frozenset())
            continue

        hops: List[NodeId] = []
        values: List[float] = []
        for neighbor, neighbor_idx, direct, bottleneck in reach:
            if neighbor_idx == target_idx:
                hops.append(neighbor)
                values.append(direct)
                continue
            remainder = bottleneck[target_idx]
            if remainder is None:
                continue
            hops.append(neighbor)
            values.append(direct if direct < remainder else remainder)

        if not hops:
            results[target] = unreachable(target=target, best_value=worst, first_hops=frozenset())
            continue
        best_value = metric.optimum(values)
        first_hops = frozenset(
            neighbor
            for neighbor, value in zip(hops, values)
            if value == best_value or isclose(value, best_value, rel_tol=rel_tol, abs_tol=rel_tol)
        )
        results[target] = FirstHopResult(target=target, best_value=best_value, first_hops=first_hops)
    return results


def prime_first_hops(views: Iterable[LocalView], metric: Metric) -> int:
    """Batch-compute :func:`all_first_hops` results for network-graph-backed views.

    The integration point of the batched CSR kernels (:mod:`repro.localview.batched`):
    views attached to a shared :class:`~repro.localview.networkgraph.NetworkGraph` get
    their ``all_first_hops(view, metric)`` result computed for all owners at once and
    cached on the view as :class:`TargetRows` (one-hop block, then two-hop block, each
    sorted).  FNBP's ``select`` reads the rows as they are (:func:`primed_first_hops`);
    the next :func:`all_first_hops` call decodes them.  Exactly the owners a kernel
    answers are primed.  Views without a shared graph, and whatever the admission rule
    (:func:`~repro.localview.networkgraph.kernel_kind`) declines, are silently left for
    the scalar path, which the differential suite pins bit-identical to the batched
    one, so callers never need to care which path answered.

    Returns the number of views primed (0 when nothing was batchable), which the tests
    use to assert the batched path actually engaged.
    """
    token = metric.cache_token()
    groups: Dict[int, Tuple[object, list]] = {}
    for view in views:
        ng = view.network_graph()
        if ng is None or token in view._first_hops:
            continue
        entry = groups.get(id(ng))
        if entry is None:
            entry = (ng, [])
            groups[id(ng)] = entry
        entry[1].append(view)
    if not groups:
        return 0
    from repro.localview.batched import batched_all_first_hops

    primed = 0
    for ng, group in groups.values():
        batch = batched_all_first_hops(ng, group, metric)
        if batch is None:
            continue
        for view in group:
            rows = batch.get(view.owner)
            if rows is not None:
                view._first_hops[token] = rows
                primed += 1
    return primed


# ---------------------------------------------------------------------- enumeration


def enumerate_best_paths(
    links: Links,
    source: NodeId,
    target: NodeId,
    metric: Metric,
    max_paths: int = 1000,
) -> List[List[NodeId]]:
    """Enumerate every QoS-optimal *simple* path between two nodes.

    Intended for tests, documentation and the paper's worked examples; complexity is
    exponential in the worst case, hence the ``max_paths`` safety valve (a
    :class:`RuntimeError` is raised when it is exceeded so callers never silently get a
    truncated answer).
    """
    if source not in links or target not in links:
        return []
    best_value = best_value_between(links, source, target, metric)
    if not metric.is_usable(best_value):
        return []

    results: List[List[NodeId]] = []

    def extend(path: List[NodeId], value: float) -> None:
        node = path[-1]
        if node == target:
            if metric.values_equal(value, best_value):
                results.append(list(path))
                if len(results) > max_paths:
                    raise RuntimeError(f"more than {max_paths} optimal paths between {source} and {target}")
            return
        for neighbor, attributes in links[node].items():
            if neighbor in path:
                continue
            link_value = metric.link_value_from_attributes(attributes)
            extended = metric.combine(value, link_value)
            # A prefix can only be extended into an optimal path if it is at least as good as
            # the optimum (path values are monotonically non-improving under extension).
            if metric.is_better_or_equal(extended, best_value):
                extend(path + [neighbor], extended)

    extend([source], metric.identity)
    return sorted(results)


def path_value(links: Links, path: Sequence[NodeId], metric: Metric) -> float:
    """The QoS value of an explicit node path evaluated on the link map's true weights."""
    if len(path) == 0:
        raise ValueError("a path needs at least one node")
    value = metric.identity
    for u, v in zip(path, path[1:]):
        attributes = links.get(u, {}).get(v)
        if attributes is None:
            raise KeyError(f"path uses the non-existent link ({u}, {v})")
        value = metric.combine(value, metric.link_value_from_attributes(attributes))
    return value
