"""Routing over advertised topologies, plus the centralized optimal reference."""

from repro.routing.advertised import AdvertisedTopology, AdvertisedTopologyBuilder, advertise
from repro.routing.hop_by_hop import HopByHopRouter, RouteOutcome
from repro.routing.optimal import OptimalRoute, best_path, optimal_route

__all__ = [
    "AdvertisedTopology",
    "AdvertisedTopologyBuilder",
    "advertise",
    "HopByHopRouter",
    "RouteOutcome",
    "OptimalRoute",
    "best_path",
    "optimal_route",
]
