"""repro -- reproduction of "Towards an efficient QoS based selection of neighbors in QOLSR".

The library implements FNBP (First Node on Best Path QANS selection), the QOLSR and
topology-filtering baselines it is compared against, the OLSR substrate they all run on, a
discrete-event protocol simulator whose lossless channel is the paper's ideal MAC layer, and
the evaluation harness that regenerates the paper's Figures 6-9.

Quick start
-----------
>>> from repro import FnbpSelector, BandwidthMetric, LocalView
>>> from repro.papergraphs import figure2_network, FIGURE2_OWNER
>>> network = figure2_network()
>>> view = LocalView.from_network(network, FIGURE2_OWNER)
>>> selection = FnbpSelector().select(view, BandwidthMetric())
>>> sorted(selection.selected)
[1, 6, 7]

See ``README.md`` for the commands and guarantees, and ``docs/architecture.md`` for the
layers and how a sweep flows through them.
"""

from repro.baselines import (
    OlsrMprSelector,
    QolsrMpr1Selector,
    QolsrMpr2Selector,
    TopologyFilteringSelector,
)
from repro.core import (
    AnsSelector,
    FnbpSelector,
    LoopGuardPolicy,
    SelectionDecision,
    SelectionResult,
    available_selectors,
    covering_relays,
    make_selector,
)
from repro.localview import LocalView, all_first_hops, first_hops_to
from repro.metrics import (
    BandwidthMetric,
    DelayMetric,
    HopCountMetric,
    JitterMetric,
    LexicographicMetric,
    Metric,
    MetricKind,
    PacketLossMetric,
    get_metric,
)
from repro.routing import (
    AdvertisedTopology,
    HopByHopRouter,
    OptimalRoute,
    RouteOutcome,
    advertise,
    optimal_route,
)
from repro.topology import (
    FieldSpec,
    GridNetworkGenerator,
    Network,
    PoissonNetworkGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "FnbpSelector",
    "LoopGuardPolicy",
    "covering_relays",
    "AnsSelector",
    "SelectionResult",
    "SelectionDecision",
    "available_selectors",
    "make_selector",
    # baselines
    "OlsrMprSelector",
    "QolsrMpr1Selector",
    "QolsrMpr2Selector",
    "TopologyFilteringSelector",
    # metrics
    "Metric",
    "MetricKind",
    "BandwidthMetric",
    "DelayMetric",
    "JitterMetric",
    "PacketLossMetric",
    "HopCountMetric",
    "LexicographicMetric",
    "get_metric",
    # topology / local view
    "Network",
    "FieldSpec",
    "PoissonNetworkGenerator",
    "GridNetworkGenerator",
    "LocalView",
    "first_hops_to",
    "all_first_hops",
    # routing
    "AdvertisedTopology",
    "advertise",
    "HopByHopRouter",
    "RouteOutcome",
    "OptimalRoute",
    "optimal_route",
]
