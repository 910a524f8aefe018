"""Local-view machinery: ``G_u``, best-path solving and first-hop-on-best-path sets."""

from repro.localview.compactgraph import CompactGraph
from repro.localview.networkgraph import NetworkGraph
from repro.localview.paths import (
    FirstHopResult,
    all_first_hops,
    best_value_between,
    best_values_from,
    enumerate_best_paths,
    first_hops_to,
    path_value,
    prime_first_hops,
)
from repro.localview.rng import dominated_links, qos_rng_reduce
from repro.localview.view import LocalView

__all__ = [
    "LocalView",
    "CompactGraph",
    "NetworkGraph",
    "FirstHopResult",
    "first_hops_to",
    "all_first_hops",
    "prime_first_hops",
    "best_values_from",
    "best_value_between",
    "enumerate_best_paths",
    "path_value",
    "qos_rng_reduce",
    "dominated_links",
]
