"""The event-driven protocol simulator's contract suite.

Four guarantees:

* **Zero-loss anchor.**  With a lossless channel and settled timers, every node's
  table-implied ANS selection equals the analytic per-node selections, and every node's
  topology table (united with its own advertised links -- a node never processes its own
  TCs) equals the analytic advertised link set of its connected component.  This pins
  the simulator to the same ground truth the analytic ``tc-overhead``/advertised-topology
  pipeline reports, for every built-in selector.
* **Determinism.**  Equal seeds give bit-identical runs in any process: the jsonl stream
  of a protocol sweep is byte-identical serial and under ``REPRO_WORKERS=2``, and the
  loss model reproduces its draws across process boundaries.
* **Protocol behaviour.**  Losses actually happen on a lossy channel (and never on a
  lossless one), triggered TCs fire when MPR-selector sets change, and the convergence
  series counts windows the way the measure documents.
* **Engine integration.**  All three protocol measures run through ``run_experiment``
  unchanged, reject static specs fast, and the CLI/spec plumbing round-trips the three
  protocol fields.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.experiments import sweep_cli
from repro.experiments.engine import run_experiment
from repro.experiments.runner import build_trial
from repro.experiments.sinks import JsonlSink
from repro.experiments.spec import ExperimentSpec
from repro.metrics import BandwidthMetric, DelayMetric
from repro.metrics.assignment import canonical_edge
from repro.protocol import LossModel, ProtocolSimulator
from repro.protocol.measures import _convergence_series, warmup_time
from repro.registry import PRESETS, SELECTORS
from repro.topology.generators import FieldSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

FIELD = FieldSpec(width=400.0, height=400.0, radius=100.0)


def _anchor_trial(metric):
    spec = ExperimentSpec(
        experiment_id="anchor",
        title="zero-loss anchor",
        measure="convergence-time",
        metric=metric.name,
        densities=(20.0,),
        runs=1,
        topology="churn",
        field=FIELD,
        timesteps=4,
        hello_interval=1.0,
        tc_interval=1.0,
    )
    return build_trial(spec, metric, 20.0, 0)


def _components(network):
    return [frozenset(component) for component in nx.connected_components(network.graph)]


def _tiny_protocol_spec(**overrides) -> ExperimentSpec:
    base = ExperimentSpec(
        experiment_id="protocol-test",
        title="Protocol sweep test",
        measure="convergence-time",
        metric="bandwidth",
        selectors=("fnbp", "qolsr-mpr2"),
        topology="churn",
        densities=(20.0,),
        runs=2,
        pairs_per_run=3,
        timesteps=3,
        step_interval=1.0,
        hello_interval=1.0,
        tc_interval=1.0,
        loss_rate=0.1,
        field=FIELD,
        seed=11,
    )
    return base.with_overrides(**overrides) if overrides else base


class TestZeroLossAnchor:
    """The simulated protocol converges to exactly the analytic pipeline's truth."""

    @pytest.mark.parametrize("selector_name", SELECTORS.names())
    def test_tables_converge_to_the_analytic_selections(self, selector_name):
        metric = BandwidthMetric()
        trial = _anchor_trial(metric)
        sim = ProtocolSimulator(
            trial.network,
            metric,
            selector_name=selector_name,
            seed=7,
            hello_interval=1.0,
            tc_interval=1.0,
            loss_model=LossModel(seed=3, loss_rate=0.0),
        )
        sim.run_until(8.0)

        analytic = {node: frozenset(r.selected) for node, r in trial.selections(selector_name).items()}
        assert sim.ans_snapshot() == analytic

        truth_edges = {
            canonical_edge(node, relay) for node, sel in analytic.items() for relay in sel
        }
        component_of = {node: comp for comp in _components(trial.network) for node in comp}
        for node, links in sim.advertised_link_sets().items():
            own = {canonical_edge(node, relay) for relay in analytic[node]}
            component_truth = {edge for edge in truth_edges if edge[0] in component_of[node]}
            # A node never processes its own TCs, and flooding cannot cross a component
            # boundary: table + own advertised links = the component's advertised set.
            assert set(links) | own == component_truth, f"node {node} ({selector_name})"

    def test_anchor_holds_for_an_additive_metric_too(self):
        metric = DelayMetric()
        trial = _anchor_trial(metric)
        sim = ProtocolSimulator(
            trial.network,
            metric,
            selector_name="fnbp",
            seed=5,
            hello_interval=1.0,
            tc_interval=1.0,
            loss_model=LossModel(seed=2, loss_rate=0.0),
        )
        sim.run_until(8.0)
        analytic = {node: frozenset(r.selected) for node, r in trial.selections("fnbp").items()}
        assert sim.ans_snapshot() == analytic

    def test_lossless_channel_loses_nothing(self):
        metric = BandwidthMetric()
        trial = _anchor_trial(metric)
        sim = ProtocolSimulator(
            trial.network, metric, seed=1, hello_interval=1.0, tc_interval=1.0,
            loss_model=LossModel(seed=1, loss_rate=0.0),
        )
        sim.run_until(6.0)
        counts = sim.control_message_counts()
        assert counts["losses"] == 0
        assert counts["deliveries"] == counts["transmissions"] > 0


class TestDeterminism:
    def test_serial_and_parallel_protocol_sweeps_stream_identical_bytes(self, tmp_path):
        spec = _tiny_protocol_spec()
        streams = {}
        for workers in (1, 2):
            path = tmp_path / f"events_w{workers}.jsonl"
            run_experiment(spec, sinks=[JsonlSink(path)], workers=workers)
            streams[workers] = path.read_bytes()
        assert streams[1] == streams[2]
        last_line = streams[1].decode().strip().splitlines()[-1]
        assert json.loads(last_line)["event"] == "result"

    def test_loss_model_draws_reproduce_across_processes(self):
        model = LossModel(seed=5, loss_rate=0.3, propagation_delay=0.001, delay_jitter=0.002)
        local = [
            (model.delivered(src, dst, seq), round(model.delay(src, dst, seq), 12))
            for src in range(3)
            for dst in range(3)
            for seq in range(4)
        ]
        script = (
            "from repro.protocol import LossModel\n"
            "m = LossModel(seed=5, loss_rate=0.3, propagation_delay=0.001, delay_jitter=0.002)\n"
            "print([(m.delivered(s, d, q), round(m.delay(s, d, q), 12))"
            " for s in range(3) for d in range(3) for q in range(4)])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == repr(local)

    def test_equal_seeds_give_identical_traces(self):
        metric = BandwidthMetric()
        trial = _anchor_trial(metric)

        def trace_key():
            sim = ProtocolSimulator(
                trial.network, metric, seed=13, hello_interval=1.0, tc_interval=1.0,
                loss_model=LossModel(seed=4, loss_rate=0.2),
            )
            sim.run_until(5.0)
            return [(e.time, e.kind, e.node) for e in sim.trace], sim.control_message_counts()

        assert trace_key() == trace_key()


class TestProtocolBehaviour:
    def test_lossy_channel_drops_and_accounts_for_packets(self):
        metric = BandwidthMetric()
        trial = _anchor_trial(metric)
        sim = ProtocolSimulator(
            trial.network, metric, seed=9, hello_interval=1.0, tc_interval=1.0,
            loss_model=LossModel(seed=9, loss_rate=0.5),
        )
        sim.run_until(6.0)
        counts = sim.control_message_counts()
        assert counts["losses"] > 0
        assert counts["deliveries"] + counts["losses"] == counts["transmissions"]

    def test_cold_start_triggers_tcs_on_mpr_selector_changes(self):
        metric = BandwidthMetric()
        trial = _anchor_trial(metric)
        sim = ProtocolSimulator(
            trial.network, metric, seed=7, hello_interval=1.0, tc_interval=1.0,
            loss_model=LossModel(seed=3, loss_rate=0.0),
        )
        sim.run_until(4.0)
        counts = sim.trace.counts()
        assert counts.get("tc-triggered", 0) >= 1
        assert counts.get("hello-sent", 0) >= len(trial.network)

    def test_attach_records_churn_steps_and_rejects_foreign_networks(self):
        metric = BandwidthMetric()
        trial = _anchor_trial(metric)
        dynamic = trial.dynamic_topology()
        sim = ProtocolSimulator(
            dynamic.network, metric, seed=3, hello_interval=1.0, tc_interval=1.0,
            loss_model=LossModel(seed=3, loss_rate=0.0),
        )
        sim.attach(dynamic)
        churned = 0
        for _ in range(6):
            delta = dynamic.advance()
            churned += 1 if delta.link_churn else 0
        assert len(sim.churn_steps) == churned
        assert sim.trace.counts().get("topology-step", 0) == 6

        other = _anchor_trial(metric)
        with pytest.raises(ValueError):
            sim.attach(other.dynamic_topology())

    def test_convergence_series_counts_windows_from_each_event(self):
        # Event at step 0 matching at step 1 -> 2 windows; event at step 2 never
        # matching -> censored (None); non-event steps carry no sample.
        assert _convergence_series([1.0, 0.0, 2.0], [False, True, False]) == [2.0, None, None]
        assert _convergence_series([1.0], [True]) == [1.0]
        assert _convergence_series([0.0, 0.0], [True, True]) == [None, None]

    def test_warmup_scales_with_the_slowest_period(self):
        assert warmup_time(1.0, 1.0) == 4.0
        assert warmup_time(2.0, 5.0) == 20.0

    def test_loss_model_validates_its_parameters(self):
        with pytest.raises(ValueError):
            LossModel(seed=1, loss_rate=1.0)
        with pytest.raises(ValueError):
            LossModel(seed=1, loss_rate=-0.1)
        with pytest.raises(ValueError):
            LossModel(seed=1, propagation_delay=-1.0)


class TestMeasuresThroughTheEngine:
    @pytest.mark.parametrize("measure", ["convergence-time", "advertised-staleness", "route-flaps"])
    def test_protocol_measures_run_end_to_end(self, measure):
        spec = _tiny_protocol_spec(measure=measure, selectors=("fnbp",), runs=1)
        result = run_experiment(spec, workers=1)
        series = result.series["fnbp"]
        assert len(series.points) == 1
        point = series.points[0]
        per_step = point.to_dict()["per_step_mean"]
        assert len(per_step) == spec.timesteps

    def test_staleness_is_zero_on_a_frozen_lossless_world(self):
        # No churn, no loss: after warmup the tables track truth exactly, so no stale
        # links ever appear and every next hop holds.
        from repro.experiments.runner import Trial
        from repro.metrics import UniformWeightAssigner
        from repro.mobility import LinkChurnGenerator
        from repro.protocol.measures import _protocol_trial

        spec = _tiny_protocol_spec(selectors=("fnbp",), runs=1, loss_rate=0.0)
        generator = LinkChurnGenerator(
            field=spec.field,
            node_count=20,
            seed=4,
            weight_assigners=(UniformWeightAssigner(metric=BandwidthMetric(), seed=9),),
            reweight_probability=0.0,
            outage_probability=0.0,
        )
        trial = Trial(
            spec=spec,
            metric=BandwidthMetric(),
            density=20.0,
            run_index=0,
            network=generator.generate(0),
            generator=generator,
        )
        payload = _protocol_trial(trial)
        assert payload["link_churn"] == [0.0] * spec.timesteps
        assert payload["staleness"]["fnbp"] == [0.0] * spec.timesteps
        assert payload["flaps"]["fnbp"] == [0.0] * spec.timesteps

    def test_protocol_measures_reject_static_specs_fast(self):
        from repro.registry import MEASURES

        spec = _tiny_protocol_spec(timesteps=0)
        with pytest.raises(ValueError, match="dynamic"):
            MEASURES.create("convergence-time").validate_spec(spec)

    def test_preset_is_a_valid_protocol_spec(self):
        spec = PRESETS.create("protocol-convergence").validate_names()
        assert spec.measure == "convergence-time"
        assert spec.loss_rate == 0.1
        assert spec.timesteps >= 1


class TestSpecAndCliPlumbing:
    def test_spec_round_trips_the_protocol_fields(self):
        spec = _tiny_protocol_spec(loss_rate=0.25, hello_interval=0.5, tc_interval=2.0)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        payload = spec.to_dict()
        assert payload["loss_rate"] == 0.25
        assert payload["hello_interval"] == 0.5
        assert payload["tc_interval"] == 2.0

    def test_cli_flags_reach_the_spec(self):
        args = sweep_cli.build_parser().parse_args(
            [
                "--preset",
                "protocol-convergence",
                "--loss-rate",
                "0.25",
                "--hello-interval",
                "0.5",
                "--tc-interval",
                "2.0",
            ]
        )
        spec = sweep_cli._apply_overrides(
            sweep_cli._base_spec(args, sweep_cli.build_parser()), args
        )
        assert spec.loss_rate == 0.25
        assert spec.hello_interval == 0.5
        assert spec.tc_interval == 2.0

    def test_invalid_protocol_fields_are_rejected(self):
        with pytest.raises(ValueError):
            _tiny_protocol_spec(loss_rate=1.0)
        with pytest.raises(ValueError):
            _tiny_protocol_spec(hello_interval=0.0)
        with pytest.raises(ValueError):
            _tiny_protocol_spec(tc_interval=-1.0)

    def test_example_spec_is_committed_and_loads(self):
        spec = ExperimentSpec.load(REPO_ROOT / "examples/specs/protocol_convergence_sweep.json")
        spec.validate_names()
        assert spec.measure == "convergence-time"
        assert spec.loss_rate == 0.05
        assert spec.step_interval == 2.0
