"""The wireless-network model.

The paper models the network as an undirected graph ``G = (V, E)`` in which an edge exists
between two nodes exactly when their Euclidean distance is at most the (common) communication
radius ``R``, links are bidirectional, and every link carries one weight per QoS metric.
:class:`Network` is that object: node positions, undirected links, per-metric link weights.
Its links are a link map (node -> ``{neighbour: attributes}``, the library's one graph
representation), with one attribute dict per link shared by both endpoints' rows.

Orders are part of the contract, because every figure and digest depends on them: nodes
are kept in insertion order, a row lists neighbours in the order their links were first
added (re-adding a link updates its dict in place), links iterate node by node over the
neighbours not yet visited as a node, and each connected component is the set a
breadth-first search grows level by level.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.localview.view import Links
from repro.metrics.base import Metric
from repro.metrics.assignment import WeightAssigner, canonical_edge
from repro.utils.ids import NodeId, normalize_node_id

Position = Tuple[float, float]


class Network:
    """An ad-hoc wireless network: positioned nodes, bidirectional QoS-weighted links."""

    def __init__(self) -> None:
        self._adjacency: Links = {}
        self._positions: Dict[NodeId, Position] = {}

    # ------------------------------------------------------------------ construction

    def add_node(self, node: NodeId, position: Optional[Position] = None) -> NodeId:
        """Add a node, or move an existing one.  ``position`` defaults to the origin."""
        node = normalize_node_id(node)
        x, y = position if position is not None else (0.0, 0.0)
        if node not in self._adjacency:
            self._adjacency[node] = {}
        self._positions[node] = (float(x), float(y))
        return node

    def add_link(self, u: NodeId, v: NodeId, **weights: float) -> None:
        """Add a bidirectional link between ``u`` and ``v`` carrying the given metric weights.

        Weights are keyword arguments keyed by metric name, e.g.
        ``network.add_link(1, 2, bandwidth=5.0, delay=2.0)``.  Both endpoints must already
        exist (or they are created at the origin, ``u`` first).  Self-links are rejected.
        Re-adding an existing link updates its weights in place.
        """
        u, v = normalize_node_id(u), normalize_node_id(v)
        if u == v:
            raise ValueError(f"self-links are not allowed (node {u})")
        if u not in self._adjacency:
            self.add_node(u)
        if v not in self._adjacency:
            self.add_node(v)
        attributes = {name: float(value) for name, value in weights.items()}
        row = self._adjacency[u]
        if v in row:
            row[v].update(attributes)
        else:
            row[v] = self._adjacency[v][u] = attributes

    def remove_link(self, u: NodeId, v: NodeId) -> None:
        """Remove the link between ``u`` and ``v`` (both endpoints stay)."""
        self._link(u, v)
        del self._adjacency[u][v]
        del self._adjacency[v][u]

    def set_link_weight(self, u: NodeId, v: NodeId, metric_name: str, value: float) -> None:
        """Set (or overwrite) one metric weight on an existing link."""
        self._link(u, v)[metric_name] = float(value)

    def apply_weight_assigner(self, assigner: WeightAssigner) -> None:
        """Populate every link's weight for ``assigner.metric`` using the assigner."""
        weights = assigner.assign(list(self.links()), dict(self.positions()))
        for (u, v), value in weights.items():
            self.set_link_weight(u, v, assigner.metric.name, value)

    @classmethod
    def from_links(
        cls,
        links: Mapping[Tuple[NodeId, NodeId], Mapping[str, float]] | Iterable[Tuple[NodeId, NodeId]],
        positions: Optional[Mapping[NodeId, Position]] = None,
    ) -> "Network":
        """Build a network from an explicit link table.

        ``links`` is either a mapping ``{(u, v): {metric: weight, ...}}`` or a bare iterable
        of ``(u, v)`` pairs (weightless links, useful with a weight assigner).
        """
        network = cls()
        if positions:
            for node, position in positions.items():
                network.add_node(node, position)
        if isinstance(links, Mapping):
            for (u, v), weights in links.items():
                network.add_link(u, v, **dict(weights))
        else:
            for u, v in links:
                network.add_link(u, v)
        return network

    # ------------------------------------------------------------------ queries

    @property
    def adjacency(self) -> Links:
        """The links as a link map, nodes in insertion order (shared, not a copy).

        Read-only: mutate the network through its methods, which keep both rows of a link
        on one attribute dict.
        """
        return self._adjacency

    def nodes(self) -> list[NodeId]:
        """All node identifiers, sorted."""
        return sorted(self._adjacency)

    def links(self) -> list[Tuple[NodeId, NodeId]]:
        """All links in canonical (sorted-endpoint) orientation."""
        return [canonical_edge(u, v) for u, v in self._edges()]

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[NodeId]:
        return iter(sorted(self._adjacency))

    def number_of_links(self) -> int:
        """Number of (undirected) links."""
        return sum(len(row) for row in self._adjacency.values()) // 2

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """True when a (bidirectional) link exists between ``u`` and ``v``."""
        return v in self._adjacency.get(u, ())

    def position(self, node: NodeId) -> Position:
        """The (x, y) position of ``node``."""
        return self._positions[node]

    def positions(self) -> Dict[NodeId, Position]:
        """Mapping of every node to its position."""
        return dict(self._positions)

    def distance(self, u: NodeId, v: NodeId) -> float:
        """Euclidean distance between two nodes."""
        (x1, y1), (x2, y2) = self.position(u), self.position(v)
        return math.hypot(x1 - x2, y1 - y2)

    def link_attributes(self, u: NodeId, v: NodeId) -> Dict[str, float]:
        """All metric weights carried by the link (a copy)."""
        return dict(self._link(u, v))

    def link_value(self, u: NodeId, v: NodeId, metric: Metric) -> float:
        """The weight of link (u, v) under ``metric``."""
        return metric.link_value_from_attributes(self._link(u, v))

    # ------------------------------------------------------------------ neighborhoods

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """The one-hop neighborhood ``N(node)``."""
        # Filled one neighbour at a time: a set built from a dict is sized differently,
        # and the next-hop rule scans candidates in this set's order.
        return set(iter(self._adjacency[node]))

    def two_hop_neighbors(self, node: NodeId) -> Set[NodeId]:
        """The strict two-hop neighborhood ``N²(node)``.

        Per the paper's definition this excludes the node itself and its one-hop neighbors.
        """
        one_hop = self.neighbors(node)
        two_hop: Set[NodeId] = set()
        for neighbor in one_hop:
            two_hop.update(iter(self._adjacency[neighbor]))
        two_hop.discard(node)
        return two_hop - one_hop

    def degree(self, node: NodeId) -> int:
        """Number of one-hop neighbors of ``node``."""
        return len(self._adjacency[node])

    def average_degree(self) -> float:
        """Mean node degree over the network (0.0 for an empty network)."""
        if not self._adjacency:
            return 0.0
        return 2.0 * self.number_of_links() / len(self._adjacency)

    # ------------------------------------------------------------------ connectivity

    def is_connected(self) -> bool:
        """True when the network has at least one node and is connected."""
        adjacency = self._adjacency
        return bool(adjacency) and len(self._component(next(iter(adjacency)))) == len(adjacency)

    def connected_components(self) -> list[Set[NodeId]]:
        """The connected components, largest first (ties in node order)."""
        components: List[Set[NodeId]] = []
        seen: Set[NodeId] = set()
        for node in self._adjacency:
            if node not in seen:
                component = self._component(node)
                seen.update(component)
                # A copy is sized afresh, which fixes the order a set built from it (as
                # subnetwork builds one) iterates in.
                components.append(set(component))
        return sorted(components, key=len, reverse=True)

    def largest_component(self) -> "Network":
        """A copy of the network restricted to its largest connected component."""
        components = self.connected_components()
        if not components:
            return Network()
        return self.subnetwork(components[0])

    def subnetwork(self, nodes: Iterable[NodeId]) -> "Network":
        """A copy of the network induced by ``nodes`` (added in the order of ``set(nodes)``)."""
        keep = set(nodes)
        sub = Network()
        for node in keep:
            if node in self._adjacency:
                sub.add_node(node, self._positions[node])
        for u, v in self._edges():
            if u in keep and v in keep:
                sub.add_link(u, v, **self._adjacency[u][v])
        return sub

    def copy(self) -> "Network":
        """A deep copy of the network."""
        # A list, not the dict: ``set()`` presizes for a dict, which changes the order the
        # copy adds its nodes in.
        return self.subnetwork(list(self._adjacency))

    # ------------------------------------------------------------------ internals

    def _link(self, u: NodeId, v: NodeId) -> dict:
        """The attribute dict link ``(u, v)`` shares between both rows."""
        attributes = self._adjacency.get(u, {}).get(v)
        if attributes is None:
            raise KeyError(f"no link between {u} and {v}")
        return attributes

    def _edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Each link once: node by node, the row's neighbours not yet visited as a node."""
        visited: Set[NodeId] = set()
        for node, row in self._adjacency.items():
            for other in row:
                if other not in visited:
                    yield node, other
            visited.add(node)

    def _component(self, source: NodeId) -> Set[NodeId]:
        """The nodes connected to ``source``, added to the set level by level."""
        adjacency = self._adjacency
        component = {source}
        level = [source]
        while level:
            next_level = []
            for node in level:
                for other in adjacency[node]:
                    if other not in component:
                        component.add(other)
                        next_level.append(other)
            level = next_level
        return component

    # ------------------------------------------------------------------ misc

    def validate_metric_coverage(self, metric: Metric) -> None:
        """Check that every link carries a (legal) weight for ``metric``.

        Experiments call this once up front so a missing weight surfaces as a clear error
        rather than a :class:`KeyError` deep inside a path computation.
        """
        for u, v in self.links():
            value = self.link_value(u, v, metric)
            metric.validate_link_value(value)

    def describe(self) -> str:
        """One-line human-readable summary, used by examples and the CLI."""
        return (
            f"Network(nodes={len(self)}, links={self.number_of_links()}, "
            f"avg_degree={self.average_degree():.2f}, connected={self.is_connected()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
