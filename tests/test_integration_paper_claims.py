"""End-to-end qualitative checks of the paper's headline claims on random topologies.

These are the repository's "does the reproduction actually reproduce" tests: on moderate
Poisson topologies (scaled down from the paper's field so they run in seconds), the relative
ordering reported in the evaluation section must hold:

* FNBP advertises the fewest neighbors and QOLSR the most (Figures 6 and 7);
* FNBP's and topology filtering's QoS overheads are small and no worse than original
  QOLSR's (Figures 8 and 9);
* all protocols deliver between connected pairs.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSpec, build_trial, qos_overhead
from repro.metrics import BandwidthMetric, DelayMetric
from repro.routing import HopByHopRouter, optimal_route
from repro.topology import FieldSpec


def _config(metric_name: str) -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="paper-claims",
        title="Paper claims",
        measure="overhead",
        metric=metric_name,
        densities=(12.0,),
        runs=2,
        pairs_per_run=6,
        field=FieldSpec(width=600.0, height=600.0, radius=100.0),
        seed=2024,
    )


def _mean_sizes_and_overheads(metric):
    config = _config(metric.name)
    sizes = {name: [] for name in config.selectors}
    overheads = {name: [] for name in config.selectors}
    deliveries = {name: 0 for name in config.selectors}
    attempts = 0
    for run_index in range(config.runs):
        trial = build_trial(config, metric, config.densities[0], run_index)
        pairs = trial.sample_pairs(config.pairs_per_run)
        attempts += len(pairs)
        for name in config.selectors:
            selections = trial.selections(name)
            sizes[name].extend(len(result.selected) for result in selections.values())
            router = HopByHopRouter(trial.network, trial.advertised_topology(name), metric)
            for source, destination in pairs:
                optimum = optimal_route(trial.network, source, destination, metric)
                outcome = router.link_state_route(source, destination)
                if outcome.delivered:
                    deliveries[name] += 1
                    overheads[name].append(qos_overhead(metric, outcome.value, optimum.value))
    mean_sizes = {name: sum(values) / len(values) for name, values in sizes.items()}
    mean_overheads = {name: sum(values) / len(values) for name, values in overheads.items()}
    return mean_sizes, mean_overheads, deliveries, attempts


@pytest.fixture(scope="module")
def bandwidth_results():
    return _mean_sizes_and_overheads(BandwidthMetric())


@pytest.fixture(scope="module")
def delay_results():
    return _mean_sizes_and_overheads(DelayMetric())


class TestAdvertisedSetSizes:
    def test_fnbp_is_the_smallest_set_bandwidth(self, bandwidth_results):
        sizes, _, _, _ = bandwidth_results
        assert sizes["fnbp"] < sizes["topology-filtering"]
        assert sizes["fnbp"] < sizes["qolsr-mpr2"]

    def test_fnbp_smaller_than_topology_filtering_for_delay(self, delay_results):
        """For the delay metric only part of the paper's Figure 7 ordering reproduces: FNBP
        stays below topology filtering, but -- as analysed in EXPERIMENTS.md -- the published
        algorithm does *not* stay below the QOLSR MPR set for additive metrics, because the
        first hops of (near-unique) shortest-delay paths spread over many neighbors."""
        sizes, _, _, _ = delay_results
        assert sizes["fnbp"] < sizes["topology-filtering"]

    def test_fnbp_sets_are_small_in_absolute_terms(self, bandwidth_results, delay_results):
        """The paper reports FNBP advertising only a handful of neighbors per node."""
        assert bandwidth_results[0]["fnbp"] < 6.0
        assert delay_results[0]["fnbp"] < 8.0


class TestOverheads:
    def test_fnbp_overhead_not_worse_than_qolsr_bandwidth(self, bandwidth_results):
        _, overheads, _, _ = bandwidth_results
        assert overheads["fnbp"] <= overheads["qolsr-mpr2"] + 1e-9

    def test_fnbp_overhead_not_worse_than_qolsr_delay(self, delay_results):
        _, overheads, _, _ = delay_results
        assert overheads["fnbp"] <= overheads["qolsr-mpr2"] + 1e-9

    def test_fnbp_overhead_is_small(self, bandwidth_results, delay_results):
        """The paper: FNBP stays within a few percent of the centralized optimum."""
        assert bandwidth_results[1]["fnbp"] <= 0.10
        assert delay_results[1]["fnbp"] <= 0.10

    def test_overheads_are_non_negative(self, bandwidth_results, delay_results):
        for _, overheads, _, _ in (bandwidth_results, delay_results):
            for name, value in overheads.items():
                assert value >= -1e-9, f"{name} reported a negative overhead"


class TestDelivery:
    def test_every_protocol_delivers_every_pair(self, bandwidth_results, delay_results):
        for _, _, deliveries, attempts in (bandwidth_results, delay_results):
            for name, delivered in deliveries.items():
                assert delivered == attempts, f"{name} failed to deliver some packets"
