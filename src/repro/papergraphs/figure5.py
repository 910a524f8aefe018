"""The paper's Figure 5: MPR set vs topology-filtering ANS vs FNBP ANS on one neighborhood.

Figure 5 shows, for one node ``u`` and one bandwidth-weighted neighborhood, (a) the RFC 3626
MPR set, (b) the set advertised by the topology-filtering approach of [7] and (c) the set
FNBP selects -- illustrating that FNBP advertises the fewest neighbors while still covering
every one- and two-hop neighbor through QoS-good paths.

As with the other figures the printed weights are not fully recoverable, so this module
provides a representative neighborhood with the same qualitative outcome (|FNBP ANS| ≤
|topology-filtering ANS| ≤ |MPR| is asserted by the tests) and a helper returning all three
selections side by side for the walk-through example.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.olsr_mpr import OlsrMprSelector
from repro.baselines.topology_filtering import TopologyFilteringSelector
from repro.core.fnbp import FnbpSelector
from repro.core.selection import SelectionResult
from repro.localview.view import LocalView
from repro.metrics import BandwidthMetric
from repro.topology.network import Network

#: The central node of the example.
FIGURE5_OWNER = 10

#: Bandwidth of every link of the reconstructed Figure 5 neighborhood.
#:
#: The construction exercises every contrast the figure illustrates: a weak direct link
#: (10, 4) that both QoS-aware selections re-route around, two-hop fringe nodes (5, 6, 7)
#: reachable through *several* equally good relays -- which topology filtering advertises in
#: full while FNBP covers through already-selected neighbors -- and a fringe node (8) that
#: FNBP covers through a longer multi-hop path, which the two-hop-limited filtering baseline
#: cannot do (it must advertise relay 4 instead).
FIGURE5_BANDWIDTH = {
    # direct links of the owner
    (10, 1): 4.0,
    (10, 2): 4.0,
    (10, 3): 4.0,
    (10, 4): 2.0,
    # links among the one-hop ring
    (3, 4): 4.0,
    # links towards the two-hop fringe
    (1, 5): 4.0,
    (2, 5): 4.0,
    (2, 6): 4.0,
    (3, 6): 4.0,
    (3, 7): 4.0,
    (4, 7): 4.0,
    (4, 8): 3.0,
}


def figure5_network() -> Network:
    """The reconstructed Figure 5 neighborhood (bandwidth weights only)."""
    network = Network()
    positions = {
        10: (50.0, 50.0),
        1: (10.0, 70.0),
        2: (20.0, 20.0),
        3: (80.0, 20.0),
        4: (90.0, 70.0),
        5: (-20.0, 40.0),
        6: (50.0, -20.0),
        7: (120.0, 30.0),
        8: (130.0, 90.0),
    }
    for node, position in positions.items():
        network.add_node(node, position)
    for (u, v), bandwidth in FIGURE5_BANDWIDTH.items():
        network.add_link(u, v, bandwidth=bandwidth)
    return network


def figure5_selections() -> Dict[str, SelectionResult]:
    """The three subset selections of Figure 5 at the central node, keyed by selector name.

    Traced (:meth:`~repro.core.selection.AnsSelector.explain`), so the FNBP result also
    answers :func:`~repro.core.fnbp.covering_relays`.
    """
    network = figure5_network()
    metric = BandwidthMetric()
    view = LocalView.from_network(network, FIGURE5_OWNER)
    selectors = (OlsrMprSelector(), TopologyFilteringSelector(), FnbpSelector())
    return {selector.name: selector.explain(view, metric) for selector in selectors}
