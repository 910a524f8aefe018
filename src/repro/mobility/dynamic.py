"""The dynamic-topology driver: advance a network through timesteps, incrementally.

:class:`DynamicTopology` owns one :class:`~repro.topology.network.Network` plus the batch of
per-node :class:`~repro.localview.view.LocalView` objects built on it, and applies a
:class:`~repro.mobility.models.TrajectoryStepper`'s world states step by step.  The whole
point is *incrementality*: a small timestep changes few links, so instead of regenerating
the network and rebuilding every view (and with them every per-metric compact graph) from
scratch, :meth:`advance` diffs the unit-disk link set against the current one and

* moves the nodes and removes/adds only the changed links, through the network's own
  methods (new links get their weights from the same pure per-edge assigner draws a full
  regeneration would use, so the incremental network is bit-identical to a from-scratch
  rebuild);
* builds a new shared :class:`~repro.localview.networkgraph.NetworkGraph` of the step's
  network when the step added, removed or reweighted a link (a graph never changes once
  built);
* gives a fresh CSR-native view on it (a few set operations, no graph) only to the owners
  in the step's dirty set, the owners ``{u, v} ∪ N(u) ∪ N(v)`` of each flipped or
  reweighted link;
* moves every other view onto the new graph: its ``G_u`` is unchanged.

Every untouched view keeps its cached first hops and compact graphs warm across the step.
``tests/test_mobility.py`` holds every step to an independent regeneration: a fresh network
and fresh views built from the step's :class:`~repro.mobility.models.WorldState` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    of the local view -- ANS selection above all -- is unchanged outside ``dirty``.  The
    set describes the *topology step*; :class:`DynamicTopology` gives exactly these owners
    new view objects, and that replacement is what the
    :class:`~repro.core.selection.SelectionCache` keys its reuse off.
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
    ) -> None:
        require_positive(radius, "radius")
        require_positive(step_interval, "step_interval")
        for assigner in weight_assigners:
            if not getattr(assigner, "position_independent", True):
                # Weights are drawn at link birth and kept until the model re-measures
                # them; a position-dependent draw would silently go stale as nodes move
                # (and diverge from a regeneration of the same step), so it is rejected
                # up front.
                raise ValueError(
                    f"dynamic topologies require position-independent weight assigners; "
                    f"{type(assigner).__name__} (metric {assigner.metric.name!r}) recomputes "
                    f"weights from node positions"
                )
        self.network = network
        self.radius = radius
        self.weight_assigners = tuple(weight_assigners)
        self.step_interval = step_interval
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

        This is how state that evolves with the topology subscribes to the step stream
        without the measures having to thread deltas around by hand: a
        :class:`~repro.protocol.simulator.ProtocolSimulator` registers here in
        :meth:`~repro.protocol.simulator.ProtocolSimulator.attach`.
        """
        self._listeners.append(listener)

    # ------------------------------------------------------------------ views

    def network_graph(self) -> NetworkGraph:
        """The current step's shared network-level CSR.

        Built lazily alongside :meth:`views`, and built anew by every step that adds,
        removes or reweights a link, so a caller that wants the current graph reads it
        after :meth:`advance`; a graph handed out earlier keeps describing its own step.
        ``tests/test_mobility.py`` pins every graph array-for-array identical to a fresh
        ``NetworkGraph.from_network`` of the network at its step.
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
            delta = self._apply(self._stepper.step(self.step_interval))
        obs.add("mobility.steps")
        obs.add("mobility.links_added", len(delta.added))
        obs.add("mobility.links_removed", len(delta.removed))
        obs.add("mobility.links_reweighted", len(delta.reweighted))
        obs.observe("mobility.dirty_owners", len(delta.dirty))
        for listener in self._listeners:
            listener(delta)
        return delta

    def _apply(self, world: WorldState) -> StepDelta:
        """Diff links against ``world``, rebuild only the views a change touched."""
        target = self._target_links(world)
        removed = sorted(self._edges - target)
        added = sorted(target - self._edges)
        network = self.network
        adjacency = network.adjacency
        for node, position in world.positions.items():
            network.add_node(node, position)
        for u, v in removed:
            network.remove_link(u, v)
        for u, v in added:
            network.add_link(u, v, **self._link_weights((u, v), world))

        # The delta's dirty set, computed whether or not views are materialized: each
        # flipped link's endpoints plus every neighbour of either endpoint.  The
        # post-step adjacency alone gives the union over the pre- and post-step
        # adjacency: an endpoint's neighbour that only one of them has is the far
        # endpoint of another flipped link.
        dirty: Set[NodeId] = set()
        _absorb_link_neighborhoods(adjacency, added + removed, dirty)

        # Weight-only changes on links that persisted through the step.
        reweighted = sorted(
            edge for edge in world.changed_weights if edge in target and edge in self._edges
        )
        for u, v in reweighted:
            for name, value in world.weight_overrides[(u, v)].items():
                network.set_link_weight(u, v, name, value)
        _absorb_link_neighborhoods(adjacency, reweighted, dirty)

        # A changed step (dirty is empty exactly when nothing changed) gets a new graph of
        # the mutated network before any view reads it; the previous graph and the views
        # held on it keep describing the old state.
        ng = self._network_graph
        if ng is not None and dirty:
            with obs.span("csr_rebuild"):
                ng = self._network_graph = NetworkGraph.from_network(network)

        if self._views is not None:
            # Updated in place (views() hands out a live dict); views() built ``ng`` first.
            views = self._views
            obs.add("mobility.views_rebuilt", len(dirty))
            for owner, view in views.items():
                if owner not in dirty:
                    view._follow(ng)  # its G_u is unchanged on the new graph
            for owner in dirty:
                views[owner] = LocalView.attached(ng, owner)

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
