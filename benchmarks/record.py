"""Record the selection micro-benchmark trajectory as machine-readable JSON.

Times the all-targets first-hop computation (the inner loop of every density sweep) on the
same dense local view as ``test_bench_micro_selection.py``, for every solver method.
Everything is written to ``BENCH_selection.json`` at the repository root.  Successive
changes re-run this to keep the perf trajectory comparable across versions::

    PYTHONPATH=src python benchmarks/record.py            # writes BENCH_selection.json
    PYTHONPATH=src python benchmarks/record.py --rounds 60 --output /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.selection import SelectionCache, make_selector  # noqa: E402
from repro.experiments.engine import run_experiment  # noqa: E402
from repro.experiments.measures import _ans_size_trial  # noqa: E402
from repro.experiments.results import ExperimentResult, SeriesPoint  # noqa: E402
from repro.experiments.runner import build_trial  # noqa: E402
from repro.experiments.spec import ExperimentSpec  # noqa: E402
from repro.experiments.stats import summarize  # noqa: E402
from repro.localview import LocalView, all_first_hops  # noqa: E402
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner  # noqa: E402
from repro.mobility.models import LinkChurnGenerator, RandomWaypointGenerator  # noqa: E402
from repro.protocol import LossModel, ProtocolSimulator  # noqa: E402
from repro.topology import FieldSpec, FixedCountNetworkGenerator  # noqa: E402

#: The paper's three selectors, in its legend order.
PAPER_SELECTORS = ("qolsr-mpr2", "topology-filtering", "fnbp")


def dense_network():
    """The dense benchmark topology (mirrors ``test_bench_micro_selection._dense_view``)."""
    metrics = (BandwidthMetric(), DelayMetric())
    assigners = tuple(
        UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=31 + i)
        for i, metric in enumerate(metrics)
    )
    return FixedCountNetworkGenerator(
        field=FieldSpec(width=420.0, height=420.0, radius=100.0),
        node_count=220,
        seed=13,
        weight_assigners=assigners,
        restrict_to_largest_component=True,
    ).generate()


def dense_view() -> LocalView:
    """The dense benchmark view (the node in the middle of the id range)."""
    network = dense_network()
    owner = network.nodes()[len(network) // 2]
    return LocalView.from_network(network, owner)


def _cases(view: LocalView):
    bandwidth, delay = BandwidthMetric(), DelayMetric()
    return {
        "owner-dijkstra": lambda: all_first_hops(view, delay, method="owner-dijkstra"),
        "bottleneck-forest": lambda: all_first_hops(view, bandwidth, method="bottleneck-forest"),
        "per-target-delay": lambda: all_first_hops(view, delay, method="per-target"),
        "per-target-bandwidth": lambda: all_first_hops(view, bandwidth, method="per-target"),
    }


def time_case(fn, rounds: int) -> dict:
    fn()  # warm-up (also populates the view's per-metric compact-graph cache)
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "rounds": rounds,
        "min_s": min(samples),
        "mean_s": sum(samples) / len(samples),
    }


def record_incremental_selection(rounds: int) -> dict:
    """Dirty-set cached re-selection vs from-scratch per-step selection on the step path.

    One timed round advances a dense random-waypoint network through several timesteps and,
    after each step (plus once at time zero), computes every paper selector's advertised
    sets at every node -- the selection workload of the dynamic measures.  Both paths use
    the same step path (diffed links, warm view caches); the difference is the selection
    layer on top:

    * ``from_scratch`` re-runs every selector on every node at every step, even in
      neighborhoods no link flip touched;
    * ``cached`` routes the same workload through a :class:`SelectionCache` invalidated by
      each step's ``StepDelta.dirty`` set, so only owners whose local view changed re-run
      the selector and everyone else reuses the previous step's results (bit-identical,
      pinned by ``tests/test_incremental_selection.py``).

    Recorded in two regimes: ``clustered`` (10% of nodes mobile, a static mesh serving
    mobile clients; dirt localizes, most selections are reused -- the headline
    ``incremental_speedup``) and ``full`` (every node mobile; most views are dirtied each
    step, so the cache's win shrinks toward the cost of the bookkeeping).
    """
    metric = BandwidthMetric()
    steps = 5

    def scenario(mobile_fraction: float) -> dict:
        generator = RandomWaypointGenerator(
            field=FieldSpec(width=420.0, height=420.0, radius=100.0),
            node_count=110,
            seed=13,
            weight_assigners=(UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=31),),
            speed_low=1.0,
            speed_high=4.0,
            pause_high=0.5,
            mobile_fraction=mobile_fraction,
        )

        def run(cached: bool) -> None:
            dynamic = generator.dynamic()
            dynamic.views()
            if cached:
                cache = SelectionCache()
                dynamic.add_step_listener(cache.on_step)

                def select_everywhere() -> None:
                    views = dynamic.views()
                    for name in PAPER_SELECTORS:
                        cache.select_all(name, metric, views, network=dynamic.network)

            else:

                def select_everywhere() -> None:
                    views = dynamic.views()
                    for name in PAPER_SELECTORS:
                        selector = make_selector(name)
                        for view in views.values():
                            selector.select(view, metric)

            select_everywhere()
            for _ in range(steps):
                dynamic.advance()
                select_everywhere()

        cached_timing = time_case(lambda: run(True), rounds)
        scratch_timing = time_case(lambda: run(False), rounds)
        probe = generator.dynamic()
        return {
            "network": {"nodes": len(probe.network), "links": probe.network.number_of_links()},
            "mobile_fraction": mobile_fraction,
            "selectors": list(PAPER_SELECTORS),
            "cached": cached_timing,
            "from_scratch": scratch_timing,
            "incremental_speedup": scratch_timing["min_s"] / cached_timing["min_s"],
        }

    clustered = scenario(0.1)
    full = scenario(1.0)
    return {
        "model": "rwp",
        "steps_per_round": steps,
        "clustered": clustered,
        "full": full,
        "incremental_speedup": clustered["incremental_speedup"],
    }


def _legacy_ans_size_sweep(spec: ExperimentSpec, metric) -> ExperimentResult:
    """The pre-redesign direct-call harness, kept inline as the benchmark reference.

    This replicates the advertised-set sweep as it ran before the spec/registry/sink
    redesign -- a hand-written loop with no spec validation, no registry resolution beyond
    the selector lookups the old code also performed, and no sink events -- a baseline
    that makes any dispatch overhead of the generic engine machine-visible.
    """
    result = ExperimentResult(
        experiment_id="bench",
        title="Size of the advertised set",
        metric_name=metric.name,
        x_label="density",
        y_label="advertised neighbors per node",
    )
    per_selector = {name: {density: [] for density in spec.densities} for name in spec.selectors}
    for density in spec.densities:
        for run_index in range(spec.runs):
            payload = _ans_size_trial(build_trial(spec, metric, density, run_index))
            for selector_name, sizes in payload["sizes"].items():
                per_selector[selector_name][density].extend(sizes)
    for selector_name in spec.selectors:
        for density in spec.densities:
            summary = summarize(per_selector[selector_name][density])
            result.add_point(selector_name, SeriesPoint(density=density, summary=summary))
    if spec.node_sample is not None:
        result.add_note(f"averaged over a sample of up to {spec.node_sample} nodes per topology")
    result.add_note(f"{spec.runs} run(s) per density; seed={spec.seed}")
    return result


def record_csr_kernels(rounds: int) -> dict:
    """Network-wide first-hop solves: per-view scalar solvers vs the batched CSR kernels.

    One timed round produces every owner's all-targets first-hop sets on the dense
    benchmark network, starting from cold solver caches each time.  The scalar round
    runs on detached views built once up front: it rebuilds every view's compact graph
    and runs the per-view solvers (that per-link re-extraction cost is exactly what the
    shared CSR eliminates).  The batched round builds a fresh :class:`NetworkGraph` and
    views attached to it, primes them through the stacked numpy kernels
    (:func:`prime_first_hops`) and reads every owner's result back through
    :func:`all_first_hops`, which decodes the primed rows.  Both sides' results are
    asserted equal before timing.
    """
    from repro.localview import NetworkGraph, prime_first_hops

    network = dense_network()
    views = list(LocalView.all_from_network(network).values())
    sections = {}
    for metric in (DelayMetric(), BandwidthMetric()):

        def scalar():
            for view in views:
                view._compact = {}
                view._first_hops = {}
            return {view.owner: all_first_hops(view, metric) for view in views}

        def batched():
            ng = NetworkGraph.from_network(network)
            attached = LocalView.all_from_network(network, network_graph=ng)
            prime_first_hops(attached.values(), metric)
            return {owner: all_first_hops(view, metric) for owner, view in attached.items()}

        if scalar() != batched():
            raise AssertionError(f"batched CSR kernels diverge from scalar ({metric.name})")
        scalar_timing = time_case(scalar, rounds)
        batched_timing = time_case(batched, rounds)
        sections[metric.name] = {
            "scalar_per_view": scalar_timing,
            "batched_csr": batched_timing,
            "batched_speedup": scalar_timing["min_s"] / batched_timing["min_s"],
        }
    sections["network"] = {
        "nodes": len(network),
        "edges": network.number_of_links(),
        "owners": len(network),
    }
    return sections


def _filtering_round_trip(network, metric, selector_name: str):
    """Cold batched selection: a fresh shared CSR and fresh views attached to it."""
    from repro.localview import NetworkGraph

    ng = NetworkGraph.from_network(network)
    return make_selector(selector_name).select_all(
        network, metric, views=LocalView.all_from_network(network, network_graph=ng)
    )


def _time_topology_filtering(network, metric, scalar_rounds: int, batched_rounds: int) -> dict:
    """Scalar per-view vs batched topology filtering (plus batched FNBP) on one network.

    The scalar side has no cache to warm, so its first timed round doubles as the
    equality reference instead of paying for a separate warm-up run.
    """
    selector = make_selector("topology-filtering")
    scalar_views = list(LocalView.all_from_network(network).values())
    samples = []
    expected = None
    for _ in range(scalar_rounds):
        start = time.perf_counter()
        result = {view.owner: selector.select(view, metric) for view in scalar_views}
        samples.append(time.perf_counter() - start)
        if expected is None:
            expected = result
    scalar_timing = {
        "rounds": scalar_rounds,
        "min_s": min(samples),
        "mean_s": sum(samples) / len(samples),
    }

    def batched():
        return _filtering_round_trip(network, metric, "topology-filtering")

    def fnbp():
        return _filtering_round_trip(network, metric, "fnbp")

    if batched() != expected:
        raise AssertionError(f"batched topology filtering diverges from scalar ({metric.name})")
    batched_timing = time_case(batched, batched_rounds)
    fnbp_timing = time_case(fnbp, batched_rounds)
    return {
        "scalar_per_view": scalar_timing,
        "batched_csr": batched_timing,
        "fnbp_batched": fnbp_timing,
        "batched_speedup": scalar_timing["min_s"] / batched_timing["min_s"],
        "batched_vs_fnbp": batched_timing["min_s"] / fnbp_timing["min_s"],
    }


def record_topology_filtering(rounds: int) -> dict:
    """Network-wide topology filtering: per-view scalar selection vs the batched path.

    A scalar round runs ``TopologyFilteringSelector.select`` on every view of a network
    built without a shared CSR (an RNG reduction of each view's link map).  A batched round
    builds a fresh :class:`NetworkGraph` and views attached to it and runs ``select_all``,
    which primes every owner's table through :mod:`repro.localview.filtering` (the
    witness table included).  FNBP's batched ``select_all`` is timed the same way as the
    yardstick (``batched_vs_fnbp`` <= 1 means topology filtering is no slower).  Results
    are asserted equal before timing.  Two networks: the dense benchmark network, and
    the first fig8 trial at density 35 (about 1100 nodes of mean degree 35).  The scalar
    side takes seconds per round, so it runs two rounds on the dense network and one
    on the fig8 trial.
    """
    from repro.registry import PRESETS

    dense = dense_network()
    sections = {
        metric.name: _time_topology_filtering(dense, metric, 2, rounds)
        for metric in (DelayMetric(), BandwidthMetric())
    }
    sections["network"] = {"nodes": len(dense), "edges": dense.number_of_links()}
    spec = PRESETS.create("fig8")
    metric = BandwidthMetric()
    trial = build_trial(spec, metric, 35.0, 0)
    sections["fig8_density35"] = dict(
        _time_topology_filtering(trial.network, metric, 1, max(1, rounds // 2)),
        nodes=len(trial.network),
        edges=trial.network.number_of_links(),
    )
    return sections


def dispatch_bench_spec() -> ExperimentSpec:
    """The single-density advertised-set sweep the dispatch and telemetry sections time."""
    return ExperimentSpec(
        experiment_id="bench",
        title="Size of the advertised set",
        measure="ans-size",
        metric="bandwidth",
        densities=(8.0,),
        runs=1,
        pairs_per_run=2,
        node_sample=20,
        field=FieldSpec(width=400.0, height=400.0, radius=100.0),
        seed=42,
    )


def record_engine_dispatch(rounds: int) -> dict:
    """Generic spec/registry engine vs the legacy direct-call harness on one small sweep.

    One timed round runs a complete single-density advertised-set sweep (trial generation
    dominates; the delta between the two paths is exactly the spec validation, registry
    resolution, measure indirection and sink event dispatch the redesign added).  The
    results of both paths are asserted identical before timing.
    """
    spec = dispatch_bench_spec()
    metric = BandwidthMetric()
    engine_result = run_experiment(spec)
    legacy_result = _legacy_ans_size_sweep(spec, metric)
    if engine_result.to_dict() != legacy_result.to_dict():
        raise AssertionError("generic engine and legacy direct harness disagree")

    engine_timing = time_case(lambda: run_experiment(spec), rounds)
    direct_timing = time_case(lambda: _legacy_ans_size_sweep(spec, metric), rounds)
    return {
        "config": {"densities": list(spec.densities), "runs": spec.runs, "node_sample": spec.node_sample},
        "spec_engine": engine_timing,
        "direct": direct_timing,
        "dispatch_overhead_ratio": engine_timing["min_s"] / direct_timing["min_s"],
    }


def record_telemetry(rounds: int) -> dict:
    """Telemetry overhead on the engine-dispatch sweep: metrics off vs on vs direct.

    One timed round is the same complete single-density sweep ``engine_dispatch`` times.
    ``metrics_off`` is the default engine path (ambient no-op telemetry helpers only),
    ``metrics_on`` runs the full registry pipeline -- per-trial registries, snapshot
    merging, ``on_metrics`` emission -- and ``direct`` is the legacy harness baseline.
    All three paths are asserted result-identical before timing (telemetry observes, it
    never perturbs).  The throughput ratios are floor-guarded in CI by
    ``test_bench_metrics_overhead.py``: metrics off must retain >=0.98x of the direct
    path's speed, metrics on >=0.90x.
    """
    spec = dispatch_bench_spec()
    metric = BandwidthMetric()
    direct_result = _legacy_ans_size_sweep(spec, metric)
    off_result = run_experiment(spec, metrics=False)
    on_result = run_experiment(spec, metrics=True)
    if not (direct_result.to_dict() == off_result.to_dict() == on_result.to_dict()):
        raise AssertionError("telemetry perturbed the sweep results")

    direct_timing = time_case(lambda: _legacy_ans_size_sweep(spec, metric), rounds)
    off_timing = time_case(lambda: run_experiment(spec, metrics=False), rounds)
    on_timing = time_case(lambda: run_experiment(spec, metrics=True), rounds)
    return {
        "config": {"densities": list(spec.densities), "runs": spec.runs, "node_sample": spec.node_sample},
        "direct": direct_timing,
        "metrics_off": off_timing,
        "metrics_on": on_timing,
        "off_throughput_vs_direct": direct_timing["min_s"] / off_timing["min_s"],
        "on_throughput_vs_direct": direct_timing["min_s"] / on_timing["min_s"],
        "on_overhead_ratio": on_timing["min_s"] / off_timing["min_s"],
    }


def record_protocol_sim(rounds: int) -> dict:
    """Event-driven protocol simulation throughput vs the analytic step pipeline.

    One timed round runs a :class:`ProtocolSimulator` (fnbp agents, 10% loss) over a
    churn network through its warmup plus ``steps`` step windows -- the workload of one
    protocol-measure trial, single selector.  The analytic baseline routes the same
    dynamic topology through the ``SelectionCache`` step path (what the mobility
    measures compute per step).  The protocol path is expected to cost *more* -- it
    simulates every HELLO/TC transmission -- so the recorded ratio is the price of
    protocol truth, and ``events_per_s`` is the event-queue throughput the price buys.
    """
    metric = BandwidthMetric()
    steps = 4
    hello_interval = tc_interval = 1.0
    warmup = 4.0 * max(hello_interval, tc_interval)
    generator = LinkChurnGenerator(
        field=FieldSpec(width=420.0, height=420.0, radius=100.0),
        node_count=60,
        seed=13,
        weight_assigners=(UniformWeightAssigner(metric=metric, low=1.0, high=10.0, seed=31),),
    )

    last_events = {"count": 0}

    def run_protocol() -> None:
        dynamic = generator.dynamic()
        sim = ProtocolSimulator(
            dynamic.network,
            metric,
            selector_name="fnbp",
            seed=7,
            hello_interval=hello_interval,
            tc_interval=tc_interval,
            loss_model=LossModel(seed=3, loss_rate=0.1),
        )
        sim.attach(dynamic)
        sim.run_until(warmup)
        for step in range(1, steps + 1):
            dynamic.advance()
            sim.run_until(warmup + step * hello_interval)
        last_events["count"] = sim.simulator.processed_events

    def run_analytic() -> None:
        dynamic = generator.dynamic()
        cache = SelectionCache()
        dynamic.add_step_listener(cache.on_step)
        cache.select_all("fnbp", metric, dynamic.views(), network=dynamic.network)
        for _ in range(steps):
            dynamic.advance()
            cache.select_all("fnbp", metric, dynamic.views(), network=dynamic.network)

    protocol_timing = time_case(run_protocol, rounds)
    analytic_timing = time_case(run_analytic, rounds)
    probe = generator.dynamic()
    events = last_events["count"]
    return {
        "network": {"nodes": len(probe.network), "links": probe.network.number_of_links()},
        "selector": "fnbp",
        "loss_rate": 0.1,
        "steps_per_round": steps,
        "events_per_round": events,
        "protocol": protocol_timing,
        "analytic": analytic_timing,
        "events_per_s": events / protocol_timing["min_s"],
        "protocol_step_cost_s": protocol_timing["min_s"] / steps,
        "protocol_vs_analytic": protocol_timing["min_s"] / analytic_timing["min_s"],
    }


def record(rounds: int) -> dict:
    view = dense_view()
    targets = len(view.known_targets())
    results = {}
    for name, fn in _cases(view).items():
        timing = time_case(fn, rounds)
        timing["targets_per_s"] = targets / timing["min_s"]
        results[name] = timing

    return {
        "benchmark": "micro_selection.all_first_hops",
        "view": {
            "nodes": len(view.nodes),
            "one_hop": len(view.one_hop),
            "targets": targets,
            "edges": sum(len(row) for row in view.links.values()) // 2,
        },
        "python": platform.python_version(),
        "results": results,
        "engine_dispatch": record_engine_dispatch(max(5, rounds // 4)),
        "telemetry": record_telemetry(max(5, rounds // 4)),
        "incremental_selection": record_incremental_selection(max(3, rounds // 8)),
        "csr_kernels": record_csr_kernels(max(3, rounds // 8)),
        "topology_filtering": record_topology_filtering(max(3, rounds // 8)),
        "protocol_sim": record_protocol_sim(max(3, rounds // 8)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=40, help="timed rounds per method")
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_selection.json"),
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)

    payload = record(args.rounds)
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for name in sorted(payload["results"]):
        timing = payload["results"][name]
        print(f"{name:32s} min {timing['min_s'] * 1e3:8.3f} ms   {timing['targets_per_s']:10.0f} targets/s")
    dispatch = payload["engine_dispatch"]
    print(
        f"engine dispatch: spec engine {dispatch['spec_engine']['min_s'] * 1e3:.3f} ms  "
        f"direct {dispatch['direct']['min_s'] * 1e3:.3f} ms  "
        f"(overhead {dispatch['dispatch_overhead_ratio']:.3f}x)"
    )
    telemetry = payload["telemetry"]
    print(
        f"telemetry: direct {telemetry['direct']['min_s'] * 1e3:.3f} ms  "
        f"off {telemetry['metrics_off']['min_s'] * 1e3:.3f} ms  "
        f"on {telemetry['metrics_on']['min_s'] * 1e3:.3f} ms  "
        f"(on/off {telemetry['on_overhead_ratio']:.3f}x)"
    )
    for regime in ("clustered", "full"):
        selection = payload["incremental_selection"][regime]
        print(
            f"incremental selection ({regime}, {selection['mobile_fraction']:.0%} mobile): "
            f"from-scratch {selection['from_scratch']['min_s'] * 1e3:.3f} ms  "
            f"cached {selection['cached']['min_s'] * 1e3:.3f} ms  "
            f"({selection['incremental_speedup']:.2f}x)"
        )
    for name in ("delay", "bandwidth"):
        kernels = payload["csr_kernels"][name]
        print(
            f"csr kernels ({name}): scalar {kernels['scalar_per_view']['min_s'] * 1e3:.3f} ms  "
            f"batched {kernels['batched_csr']['min_s'] * 1e3:.3f} ms  "
            f"({kernels['batched_speedup']:.2f}x)"
        )
    for name in ("delay", "bandwidth", "fig8_density35"):
        filtering = payload["topology_filtering"][name]
        print(
            f"topology filtering ({name}): scalar "
            f"{filtering['scalar_per_view']['min_s'] * 1e3:.3f} ms  "
            f"batched {filtering['batched_csr']['min_s'] * 1e3:.3f} ms  "
            f"({filtering['batched_speedup']:.2f}x; "
            f"{filtering['batched_vs_fnbp']:.2f}x FNBP's batched time)"
        )
    protocol = payload["protocol_sim"]
    print(
        f"protocol sim: {protocol['events_per_s']:.0f} events/s  "
        f"step {protocol['protocol_step_cost_s'] * 1e3:.3f} ms  "
        f"({protocol['protocol_vs_analytic']:.1f}x the analytic step)"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
