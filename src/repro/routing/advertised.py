"""From per-node advertised sets to the network-wide advertised topology.

In OLSR, every node periodically floods a TC message listing the nodes that selected it (its
advertised/MPR selectors); the union of those announcements is the partial topology every
node ends up knowing and computing routes on.  Announcing "s selected me" for every selector
s is equivalent, link-wise, to announcing the links ``(u, w)`` for every ``w ∈ ANS(u)``, which
is the form used here: :meth:`AdvertisedTopologyBuilder.build` turns the per-node selection
results into an :class:`AdvertisedTopology`, a plain value holding the advertised sets and
each node's advertised neighbors.  The links carry the true link weights (nodes measure
their own link QoS and include it in the announcements, as QOLSR does), which routes read
from the network itself.

Routing then happens *on these links* plus, at each source, the links it knows from HELLOs
even when nobody advertised them -- see :mod:`repro.routing.hop_by_hop`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Set

from repro.core.selection import AnsSelector, SelectionResult
from repro.metrics.base import Metric
from repro.topology.network import Network
from repro.utils.ids import NodeId


@dataclass
class AdvertisedTopology:
    """The network-wide link-state database induced by an ANS selection.

    Attributes
    ----------
    network:
        The network the advertised links belong to.
    ans_sets:
        The per-node advertised sets the topology was built from.
    neighbors:
        Each node's advertised neighbors, with both directions of every advertised link: a
        link ``(u, w)`` is advertised as soon as *either* endpoint advertises the other.
        Nodes without advertised links are absent.
    """

    network: Network
    ans_sets: Dict[NodeId, FrozenSet[NodeId]]
    neighbors: Dict[NodeId, Set[NodeId]]

    def advertised_link_count(self) -> int:
        """Number of distinct links present in the advertised topology."""
        return sum(len(others) for others in self.neighbors.values()) // 2

    def average_set_size(self) -> float:
        """Mean advertised-set size per node (the quantity of the paper's Figures 6 and 7)."""
        if not self.ans_sets:
            return 0.0
        return sum(len(selected) for selected in self.ans_sets.values()) / len(self.ans_sets)


class AdvertisedTopologyBuilder:
    """Builds the advertised topologies of selections on one network.

    It holds only the network, so every :meth:`build` returns an independent topology.
    """

    def __init__(self, network: Network) -> None:
        self.network = network

    def build(
        self,
        selections: Mapping[NodeId, SelectionResult] | Mapping[NodeId, FrozenSet[NodeId]],
    ) -> AdvertisedTopology:
        """The advertised topology of ``selections``.

        ``selections`` maps each node either to a :class:`SelectionResult` or directly to
        the set of selected neighbors.  Every advertised link must exist in the network;
        :class:`ValueError` otherwise.
        """
        network = self.network
        ans_sets: Dict[NodeId, FrozenSet[NodeId]] = {}
        neighbors: Dict[NodeId, Set[NodeId]] = {}
        for node, selection in selections.items():
            selected = (
                selection.selected
                if isinstance(selection, SelectionResult)
                else frozenset(selection)
            )
            ans_sets[node] = selected
            for relay in selected:
                if not network.has_link(node, relay):
                    raise ValueError(
                        f"node {node} advertised {relay} but no such link exists in the network"
                    )
                neighbors.setdefault(node, set()).add(relay)
                neighbors.setdefault(relay, set()).add(node)
        return AdvertisedTopology(network=network, ans_sets=ans_sets, neighbors=neighbors)


def advertise(
    network: Network,
    selector: AnsSelector,
    metric: Metric,
) -> AdvertisedTopology:
    """Convenience: run the selection everywhere and build the advertised topology."""
    return AdvertisedTopologyBuilder(network).build(selector.select_all(network, metric))
