"""The decision-trace contract: ``select`` returns the advertised set, ``explain`` the trace.

``tests/data/selection_traces_golden.json`` pins, for every owner of two seeded 30-node
networks, every built-in selector and both paper metrics, the advertised set, the number
of decisions and the SHA-256 of the ``repr`` of every :class:`SelectionDecision` in
order (so order, targets, ``chosen``, reasons and detail tuples all count).  It was
captured when ``select`` still recorded the trace itself; ``explain`` must reproduce it
exactly, on detached views and on views primed over a shared CSR alike.

The other tests here pin the untraced side: sweeps (``Trial.selections``, which runs
``select_all``) build no decision at all, and reading a trace off an untraced result is
an error rather than an empty report.

A deliberate change of a trace regenerates the file with
``PYTHONPATH=src python tests/test_selection_traces.py --write`` and says why in the
change log.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.core import SelectionDecision, covering_relays, make_selector
from repro.localview.networkgraph import NetworkGraph
from repro.localview.paths import FirstHopResult, TargetRows
from repro.localview.view import LocalView
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.obs import runtime as obs
from repro.obs.registry import MetricsRegistry
from repro.topology.generators import FieldSpec, FixedCountNetworkGenerator
from repro.topology.network import Network

GOLDEN = Path(__file__).resolve().parent / "data" / "selection_traces_golden.json"

#: Every built-in selector (listed rather than read from the registry, which other
#: tests and user code extend).
SELECTORS = (
    "fnbp",
    "fnbp-literal-guard",
    "fnbp-no-guard",
    "fnbp-two-hop-only",
    "topology-filtering",
    "qolsr-mpr1",
    "qolsr-mpr2",
    "olsr-mpr",
)
METRICS = {"bandwidth": BandwidthMetric(), "delay": DelayMetric()}
FIELD = FieldSpec(width=300.0, height=300.0, radius=100.0)


def golden_networks() -> dict:
    """Two seeded 30-node unit-disk networks.

    ``uniform`` carries the paper's uniform weights, so first-hop sets are mostly
    singletons; ``integer`` re-weights the links of another deployment with integers in
    1..3, so equal path values and multi-element first-hop sets are the rule.
    """
    uniform = FixedCountNetworkGenerator(
        field=FIELD,
        node_count=30,
        seed=5,
        weight_assigners=tuple(
            UniformWeightAssigner(metric=metric, seed=5 + index)
            for index, metric in enumerate(METRICS.values())
        ),
    ).generate()
    deployment = FixedCountNetworkGenerator(field=FIELD, node_count=30, seed=9).generate()
    rng = random.Random(9)
    integer = Network()
    for node in deployment.nodes():
        integer.add_node(node, deployment.position(node))
    for u, v in sorted(deployment.links()):
        integer.add_link(u, v, bandwidth=float(rng.randint(1, 3)), delay=float(rng.randint(1, 3)))
    return {"uniform": uniform, "integer": integer}


def _record(result) -> dict:
    hasher = hashlib.sha256()
    for decision in result.decisions:
        hasher.update(repr(decision).encode("utf-8"))
        hasher.update(b"\n")
    return {
        "selected": sorted(result.selected),
        "decisions": len(result.decisions),
        "trace_sha256": hasher.hexdigest(),
    }


def explained_traces(network, selector_name: str, metric_name: str, primed: bool) -> dict:
    """``explain`` at every owner, keyed by owner (as a string, the JSON key type).

    ``primed`` attaches the views to a shared CSR and primes them as ``select_all``
    does, so the trace is read off the batched kernels' results.
    """
    selector = make_selector(selector_name)
    metric = METRICS[metric_name]
    if primed:
        views = LocalView.all_from_network(network, network_graph=NetworkGraph.from_network(network))
        selector.prime(list(views.values()), metric)
    else:
        views = LocalView.all_from_network(network)
    return {str(owner): _record(selector.explain(view, metric)) for owner, view in views.items()}


def _key(network_name: str, selector_name: str, metric_name: str) -> str:
    return f"{network_name}/{selector_name}/{metric_name}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("primed", [False, True], ids=["detached", "primed"])
@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("selector_name", SELECTORS)
def test_explain_reproduces_the_golden_traces(golden, selector_name, metric_name, primed):
    for network_name, network in golden_networks().items():
        expected = golden[_key(network_name, selector_name, metric_name)]
        actual = explained_traces(network, selector_name, metric_name, primed)
        for owner in expected:
            assert actual[owner] == expected[owner], (network_name, owner)
        assert actual == expected


def test_sweep_selections_build_no_decision():
    """A smoke-size trial's selections (``select_all``, as every sweep runs them) carry
    no trace for any built-in selector, and building them leaves no
    :class:`SelectionDecision` alive."""
    from repro.experiments.presets import figure_spec
    from repro.experiments.runner import build_trial

    spec = figure_spec(8, "smoke")
    gc.collect()
    before = {id(obj) for obj in gc.get_objects() if isinstance(obj, SelectionDecision)}
    trial = build_trial(spec, METRICS["bandwidth"], spec.densities[0], 0)
    selections = {name: trial.selections(name) for name in SELECTORS}
    for name, results in selections.items():
        assert results, name
        assert all(result.decisions is None for result in results.values()), name
    alive = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, SelectionDecision) and id(obj) not in before
    ]
    assert alive == []


def test_fnbp_sweep_builds_no_first_hop_result():
    """FNBP's ``select_all`` over a smoke fig8 trial's attached views selects on the
    primed rows, so no :class:`FirstHopResult` is left alive, on the views or elsewhere."""
    from repro.experiments.presets import figure_spec
    from repro.experiments.runner import build_trial

    spec = figure_spec(8, "smoke")
    trial = build_trial(spec, METRICS["bandwidth"], spec.densities[0], 0)
    gc.collect()
    before = {id(obj) for obj in gc.get_objects() if isinstance(obj, FirstHopResult)}
    assert trial.selections("fnbp")
    assert all(view.network_graph() is not None for view in trial.views().values())
    alive = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, FirstHopResult) and id(obj) not in before
    ]
    assert alive == []


def test_fnbp_loop_guard_reads_relays_from_the_coverage_record(monkeypatch):
    """FNBP's adjacent-to-target guard reads each target's relays as a mask from the
    view's coverage record, so a sweep's ``select_all`` (on a smoke fig8 trial's attached
    views) never asks the view for ``common_relays``."""
    from repro.experiments.presets import figure_spec
    from repro.experiments.runner import build_trial

    asked = []
    common_relays = LocalView.common_relays

    def spy(view, target):
        asked.append(target)
        return common_relays(view, target)

    monkeypatch.setattr(LocalView, "common_relays", spy)
    spec = figure_spec(8, "smoke")
    trial = build_trial(spec, METRICS["bandwidth"], spec.densities[0], 0)
    assert trial.selections("fnbp")
    assert asked == []
    # The guard ran, and built the record where it did.
    assert any(view._coverage is not None for view in trial.views().values())


@pytest.mark.parametrize("selector_name", ["fnbp", "topology-filtering"])
def test_only_a_trace_decodes_the_primed_rows(monkeypatch, selector_name):
    """``select_all`` never decodes a row; ``explain`` on primed views decodes every
    row it records, read from the kernels' rows (the counters show no scalar solve)."""
    decoded = []
    decode = TargetRows.decode

    def spy(rows, k):
        decoded.append(k)
        return decode(rows, k)

    monkeypatch.setattr(TargetRows, "decode", spy)
    network = golden_networks()["integer"]
    metric = METRICS["bandwidth"]
    selector = make_selector(selector_name)
    ng = NetworkGraph.from_network(network)
    selector.select_all(network, metric, views=LocalView.all_from_network(network, network_graph=ng))
    assert decoded == []

    views = LocalView.all_from_network(network, network_graph=ng)
    selector.prime(list(views.values()), metric)
    registry = MetricsRegistry()
    previous = obs.install(registry)
    try:
        decisions = sum(len(selector.explain(view, metric).decisions) for view in views.values())
    finally:
        obs.install(previous)
    assert len(decoded) == decisions > 0
    if selector_name == "fnbp":
        assert registry.counters == {"kernel.primed_hits": len(views)}
    else:
        assert registry.counters == {"filtering.batched_views": len(views)}


@pytest.mark.parametrize("figure", [8, 9], ids=["fig8-bandwidth", "fig9-delay"])
def test_every_fnbp_select_of_a_sweep_reads_primed_rows(figure):
    """Both first-hop kernels (concave for bandwidth, additive for delay) answer every
    FNBP ``select`` of a smoke trial: one primed hit per owner, no scalar dispatch."""
    from repro.experiments.presets import figure_spec
    from repro.experiments.runner import build_trial

    spec = figure_spec(figure, "smoke")
    trial = build_trial(spec, METRICS[spec.metric], spec.densities[0], 0)
    registry = MetricsRegistry()
    previous = obs.install(registry)
    try:
        results = trial.selections("fnbp")
    finally:
        obs.install(previous)
    assert len(results) == len(trial.network) > 0
    assert registry.counters["kernel.primed_hits"] == len(results)
    assert "kernel.scalar_dispatches" not in registry.counters


def test_reading_a_trace_off_an_untraced_result_raises():
    network = golden_networks()["integer"]
    view = LocalView.from_network(network, 0)
    result = make_selector("fnbp").select(view, METRICS["bandwidth"])
    with pytest.raises(ValueError, match="AnsSelector.explain"):
        covering_relays(result)
    with pytest.raises(ValueError, match="AnsSelector.explain"):
        result.explain()


def _write_golden() -> None:
    data = {
        _key(network_name, selector_name, metric_name): explained_traces(
            network, selector_name, metric_name, primed=False
        )
        for network_name, network in golden_networks().items()
        for selector_name in SELECTORS
        for metric_name in sorted(METRICS)
    }
    # One line per owner keeps the file short and its diffs readable.
    blocks = []
    for key, owners in sorted(data.items()):
        rows = ",\n".join(
            f"  {json.dumps(owner)}: {json.dumps(record, sort_keys=True)}"
            for owner, record in sorted(owners.items(), key=lambda item: int(item[0]))
        )
        blocks.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_selection_traces.py --write")
    _write_golden()
