"""The dynamic-topology driver: advance a network through timesteps, incrementally.

:class:`DynamicTopology` owns one :class:`~repro.topology.network.Network` plus the batch of
per-node :class:`~repro.localview.view.LocalView` objects built on it, and applies a
:class:`~repro.mobility.models.TrajectoryStepper`'s world states step by step.  The whole
point is *incrementality*: a small timestep changes few links, so instead of regenerating
the network and rebuilding every view (and with them every per-metric compact graph and
bottleneck forest) from scratch, :meth:`advance` diffs the unit-disk link set against the
current one and

* moves the nodes and removes/adds only the changed links, through the network's own
  methods (new links get their weights from the same pure per-edge assigner draws a full
  regeneration would use, so the incremental network is bit-identical to a from-scratch
  rebuild);
* keeps one shared :class:`~repro.localview.networkgraph.NetworkGraph` in step: a
  structural change rebuilds it, a pure weight change patches it in place;
* gives a fresh CSR-native view (a few set operations, no graph) only to the owners whose
  two-hop neighborhood a structural change touched (the owners ``{u, v} ∪ N(u) ∪ N(v)``
  of each flipped link, unioned over the pre- and post-change adjacency);
* drops the caches (``invalidate_caches``) of every other view that sees a reweighted
  link: the patched CSR already carries the new weights.

Every untouched view keeps its cached first hops, compact graphs and bottleneck forests
warm across the step -- that is the measured speedup of the ``mobility`` section of
``BENCH_selection.json``.

``incremental=False`` switches the driver to the naïve baseline -- rebuild the network and
drop all views every step -- used by the differential tests (both modes must produce
bit-identical networks and views) and as the benchmark reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.localview.networkgraph import NetworkGraph
from repro.localview.view import LocalView
from repro.metrics.assignment import Edge, WeightAssigner
from repro.mobility.models import TrajectoryStepper, WorldState
from repro.obs import runtime as obs
from repro.topology.network import Network
from repro.topology.unit_disk import unit_disk_links
from repro.utils.ids import NodeId
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class StepDelta:
    """What one :meth:`DynamicTopology.advance` changed, for measures and diagnostics.

    ``dirty`` is the step's *invalidation set*: every owner whose two-hop local view the
    step changed.  A link ``(u, v)`` is visible in exactly the views of ``{u, v} ∪ N(u) ∪
    N(v)`` (the view of ``w`` contains every link with an endpoint in ``N(w)``), so the
    dirty set is that neighborhood unioned over all flipped links -- taken over both the
    pre- and post-step adjacency, because a removed link is visible through its old
    neighbors and an added one through its new -- plus the same (current-adjacency)
    neighborhood of every reweighted link.  Any per-node quantity that is a pure function
    of the local view -- ANS selection above all -- is unchanged outside ``dirty``; that is
    the contract the :class:`~repro.core.selection.SelectionCache` keys its reuse off, and
    it holds identically in incremental and rebuild mode (the set describes the *topology
    step*, not the driver's view-maintenance strategy).
    """

    step: int
    added: Tuple[Edge, ...]
    removed: Tuple[Edge, ...]
    reweighted: Tuple[Edge, ...]
    dirty: FrozenSet[NodeId] = frozenset()

    @property
    def link_churn(self) -> int:
        """Physical links flipped this step (the added + removed count)."""
        return len(self.added) + len(self.removed)


class DynamicTopology:
    """A network advanced through timesteps by diffing link sets and weights.

    The driver's :attr:`network` and the views returned by :meth:`views` are live objects:
    each :meth:`advance` mutates them in place (that is what makes the step path cheap).
    Callers that need a frozen snapshot of some step must copy before advancing.
    """

    def __init__(
        self,
        network: Network,
        stepper: TrajectoryStepper,
        radius: float,
        weight_assigners: Sequence[WeightAssigner] = (),
        step_interval: float = 1.0,
        incremental: bool = True,
    ) -> None:
        require_positive(radius, "radius")
        require_positive(step_interval, "step_interval")
        for assigner in weight_assigners:
            if not getattr(assigner, "position_independent", True):
                # Weights are drawn at link birth and kept until the model re-measures
                # them; a position-dependent draw would silently go stale as nodes move
                # (and diverge from the rebuild baseline), so it is rejected up front.
                raise ValueError(
                    f"dynamic topologies require position-independent weight assigners; "
                    f"{type(assigner).__name__} (metric {assigner.metric.name!r}) recomputes "
                    f"weights from node positions"
                )
        self.network = network
        self.radius = radius
        self.weight_assigners = tuple(weight_assigners)
        self.step_interval = step_interval
        self.incremental = incremental
        self.step_index = 0
        self._stepper = stepper
        self._views: Optional[Dict[NodeId, LocalView]] = None
        self._network_graph: Optional[NetworkGraph] = None
        self._edges: Set[Edge] = set(network.links())
        self._static_links: Optional[List[Edge]] = None
        self._last_positions: Optional[object] = None
        self._listeners: List[Callable[[StepDelta], None]] = []

    # ------------------------------------------------------------------ listeners

    def add_step_listener(self, listener: Callable[[StepDelta], None]) -> None:
        """Call ``listener(delta)`` after every :meth:`advance`, in registration order.

        This is how per-trial caches keyed on the topology's evolution subscribe to the
        step stream without the measures having to thread deltas around by hand: the
        :class:`~repro.core.selection.SelectionCache` of
        :meth:`Trial.step_selections <repro.experiments.runner.Trial.step_selections>`
        registers its invalidation hook here.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------ views

    def network_graph(self) -> NetworkGraph:
        """The current step's shared network-level CSR (maintained across steps).

        Built lazily alongside :meth:`views` and kept in lockstep with the live network:
        structural steps rebuild it, weight-only steps patch its weight arrays in place
        (:meth:`NetworkGraph.patch_weights`).  The maintained object is pinned
        array-for-array identical to a fresh ``NetworkGraph.from_network`` of the current
        network by ``tests/test_mobility.py``.
        """
        if self._network_graph is None:
            self._network_graph = NetworkGraph.from_network(self.network)
        return self._network_graph

    def views(self) -> Dict[NodeId, LocalView]:
        """Every node's local view of the *current* step (maintained incrementally)."""
        if self._views is None:
            self._views = LocalView.all_from_network(
                self.network, network_graph=self.network_graph()
            )
        return self._views

    # ------------------------------------------------------------------ stepping

    def advance(self) -> StepDelta:
        """Advance one timestep, notify the step listeners and return what changed."""
        self.step_index += 1
        with obs.span("mobility_step"):
            world = self._stepper.step(self.step_interval)
            target = self._target_links(world)
            if self.incremental:
                delta = self._advance_incremental(world, target)
            else:
                delta = self._rebuild(world, target)
        obs.add("mobility.steps")
        obs.add("mobility.links_added", len(delta.added))
        obs.add("mobility.links_removed", len(delta.removed))
        obs.add("mobility.links_reweighted", len(delta.reweighted))
        obs.observe("mobility.dirty_owners", len(delta.dirty))
        for listener in self._listeners:
            listener(delta)
        return delta

    def _advance_incremental(self, world: WorldState, target: Set[Edge]) -> StepDelta:
        """The incremental step path: diff links, rebuild only the views a change touched."""
        removed = sorted(self._edges - target)
        added = sorted(target - self._edges)
        network = self.network
        adjacency = network.adjacency

        # Owners whose view structure a flipped link touches: the link's endpoints plus
        # every pre-change neighbor of either endpoint (post-change neighbors are added
        # below, after the network mutation).  This doubles as the flipped-link half of the
        # delta's dirty set, so it is computed whether or not views are materialized.
        affected: Set[NodeId] = set()
        _absorb_link_neighborhoods(adjacency, removed + added, affected)

        for node, position in world.positions.items():
            network.add_node(node, position)
        for u, v in removed:
            network.remove_link(u, v)
        for u, v in added:
            network.add_link(u, v, **self._link_weights((u, v), world))

        _absorb_link_neighborhoods(adjacency, added + removed, affected)

        # Weight-only changes on links that persisted through the step.
        reweighted = sorted(
            edge for edge in world.changed_weights if edge in target and edge in self._edges
        )
        for u, v in reweighted:
            for name, value in world.weight_overrides[(u, v)].items():
                network.set_link_weight(u, v, name, value)
        dirty = set(affected)
        _absorb_link_neighborhoods(adjacency, reweighted, dirty)

        # Bring the shared CSR back in sync with the mutated network before any view
        # touches it: structural changes rebuild it (new rows; views built earlier keep
        # the old ones), weight-only steps patch its snapshot and weight arrays in place.
        ng = self._network_graph
        if ng is not None:
            if added or removed:
                with obs.span("csr_rebuild"):
                    ng.rebuild(self.network)
            elif reweighted:
                with obs.span("csr_patch"):
                    ng.patch_weights(self.network, reweighted)

        if self._views is not None:
            # Updated in place (views() hands out a live dict); views() built ``ng`` first.
            views = self._views
            obs.add("mobility.views_rebuilt", len(affected))
            for owner in affected:
                views[owner] = LocalView.from_adjacency(adjacency, owner, network_graph=ng)
            for owner, view in views.items():
                if owner in affected:
                    continue
                if added or removed:
                    view._follow(ng)  # its neighbourhood is unchanged on the new rows
                if owner in dirty:  # sees a reweighted link, which the CSR now carries
                    view.invalidate_caches()

        self._edges = target
        return StepDelta(
            step=self.step_index,
            added=tuple(added),
            removed=tuple(removed),
            reweighted=tuple(reweighted),
            dirty=frozenset(dirty),
        )

    # ------------------------------------------------------------------ internals

    def _target_links(self, world: WorldState) -> Set[Edge]:
        """The canonical link set of this step: unit-disk links minus forced outages."""
        if world.positions is self._last_positions and self._static_links is not None:
            links = self._static_links
        else:
            links = unit_disk_links(world.positions, self.radius)
            self._static_links = links
            self._last_positions = world.positions
        if not world.down_links:
            return set(links)
        return {edge for edge in links if edge not in world.down_links}

    def _link_weights(self, edge: Edge, world: WorldState) -> Dict[str, float]:
        """A (re)appearing link's attributes: pure per-edge assigner draws plus overrides.

        Assigner draws are pure, position-independent functions of ``(seed, metric,
        edge)`` (enforced at construction), so an incrementally added link carries exactly
        the weights a from-scratch regeneration assigns it.
        """
        attributes: Dict[str, float] = {}
        for assigner in self.weight_assigners:
            attributes[assigner.metric.name] = assigner.assign([edge], world.positions)[edge]
        attributes.update(world.weight_overrides.get(edge, {}))
        return attributes

    def _rebuild(self, world: WorldState, target: Set[Edge]) -> StepDelta:
        """The naïve per-step regeneration baseline: fresh network, all views dropped.

        The delta's ``dirty`` set is computed exactly as on the incremental path (it
        describes the topology step, not the maintenance strategy), which is what keeps
        cached selections bit-identical between the two modes.
        """
        removed = sorted(self._edges - target)
        added = sorted(target - self._edges)
        reweighted = sorted(
            edge for edge in world.changed_weights if edge in target and edge in self._edges
        )
        network = self.network
        dirty: Set[NodeId] = set()
        _absorb_link_neighborhoods(network.adjacency, removed + added, dirty)
        # Repopulate the existing Network object so the driver's live-ownership contract
        # (self.network is mutated in place, never swapped) holds in this mode too --
        # callers may have handed the network to builders or routers before the step.
        network.clear()
        for node, position in world.positions.items():
            network.add_node(node, position)
        for edge in sorted(target):
            network.add_link(*edge, **self._link_weights(edge, world))
        _absorb_link_neighborhoods(network.adjacency, added + removed + reweighted, dirty)
        self._views = None
        self._network_graph = None
        self._edges = target
        return StepDelta(
            step=self.step_index,
            added=tuple(added),
            removed=tuple(removed),
            reweighted=tuple(reweighted),
            dirty=frozenset(dirty),
        )


def _absorb_link_neighborhoods(adjacency, edges: Sequence[Edge], into: Set[NodeId]) -> None:
    """Union each link's view neighborhood ``{u, v} ∪ N(u) ∪ N(v)`` into ``into``.

    A link is visible in exactly those owners' two-hop views, so this is the building
    block of :attr:`StepDelta.dirty`.  Rows are fed as plain iterators, one node at a
    time (``set.update`` presizes its table for a dict, which would change the set's
    iteration order).
    """
    for u, v in edges:
        into.add(u)
        into.add(v)
        into.update(iter(adjacency[u]))
        into.update(iter(adjacency[v]))
