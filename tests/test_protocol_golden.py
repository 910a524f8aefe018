"""Byte-level pin of the protocol simulator's event stream on lossy, jittered runs.

``tests/data/protocol_golden.json`` holds what the simulator produced when the pin was
captured, and every test here asserts today's simulator still produces exactly that:

* **Direct runs.**  A 40-node ``LinkChurnGenerator`` network over a channel with 20% loss
  and a jittered delay, for FNBP, topology filtering and QOLSR-MPR2 under the bandwidth
  and delay metrics, through warm-up and four churn steps.  Pinned per run: the SHA-256
  of the trace as ``(time, kind, node, detail)``, ``control_message_counts()``, and after
  warm-up and every step the advertised and MPR sets (as of the last refresh and as the
  current tables imply), the topology tables' advertised links (as a digest) and the next
  hops of fixed pairs.
* **Sweeps.**  The JSONL bytes of two ``_tiny_protocol_spec`` sweeps
  (``convergence-time`` and ``route-flaps``) through ``run_experiment``.  The worker
  count comes from ``REPRO_WORKERS``, so running this module under ``REPRO_WORKERS=2``
  checks the multiprocessing path against the same committed bytes.

Data-packet ids and message sequence numbers come from a process-wide counter, so the
trace digest strips ``packet_id`` and nothing here pins a sequence number.

A deliberate change of the event stream regenerates the file with
``PYTHONPATH=src python tests/test_protocol_golden.py --write`` and says why in the
change log.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import List

import pytest

from repro.experiments.engine import run_experiment
from repro.experiments.sinks import JsonlSink
from repro.metrics import BandwidthMetric, DelayMetric, UniformWeightAssigner
from repro.mobility.models import LinkChurnGenerator
from repro.protocol import LossModel, ProtocolSimulator
from repro.protocol.measures import warmup_time
from repro.topology.generators import FieldSpec

from test_protocol_sim import _tiny_protocol_spec

GOLDEN = Path(__file__).resolve().parent / "data" / "protocol_golden.json"

FIELD = FieldSpec(width=400.0, height=400.0, radius=100.0)
NODE_COUNT = 40
SEED = 23
STEPS = 4
SELECTORS = ("fnbp", "topology-filtering", "qolsr-mpr2")
METRICS = {"bandwidth": BandwidthMetric, "delay": DelayMetric}
PAIRS = [(0, 39), (5, 21), (12, 3), (17, 30), (26, 8), (33, 14)]
SWEEP_MEASURES = ("convergence-time", "route-flaps")


def _sorted_sets(sets) -> List[str]:
    return [f"{node}: {sorted(members)}" for node, members in sorted(sets.items())]


def _digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _trace_digest(sim: ProtocolSimulator) -> str:
    return _digest(
        repr(
            (
                event.time,
                event.kind,
                event.node,
                tuple(item for item in event.detail if item[0] != "packet_id"),
            )
        )
        for event in sim.trace
    )


def _snapshot(sim: ProtocolSimulator) -> dict:
    links = sim.advertised_link_sets()
    return {
        "ans": _sorted_sets(sim.ans_sets()),
        "ans_snapshot": _sorted_sets(sim.ans_snapshot()),
        "mpr": _sorted_sets(sim.mpr_sets()),
        "advertised_links": _digest(
            f"{node}:{sorted(links[node])}" for node in sorted(links)
        ),
        "next_hops": sim.next_hops(PAIRS),
    }


def direct_run(selector_name: str, metric_name: str) -> dict:
    """One lossy jittered run over a churning network, as the golden file records it."""
    metric = METRICS[metric_name]()
    generator = LinkChurnGenerator(
        field=FIELD,
        node_count=NODE_COUNT,
        seed=SEED,
        weight_assigners=(UniformWeightAssigner(metric=metric, seed=SEED),),
    )
    dynamic = generator.dynamic(run_index=0, step_interval=1.0)
    sim = ProtocolSimulator(
        dynamic.network,
        metric,
        selector_name=selector_name,
        seed=SEED,
        hello_interval=1.0,
        tc_interval=1.0,
        loss_model=LossModel(seed=SEED + 1, loss_rate=0.2, propagation_delay=0.001, delay_jitter=0.004),
    )
    sim.attach(dynamic)
    horizon = warmup_time(1.0, 1.0)
    sim.run_until(horizon)
    steps = [_snapshot(sim)]
    for _ in range(STEPS):
        dynamic.advance()
        horizon += 1.0
        sim.run_until(horizon)
        steps.append(_snapshot(sim))
    return {
        "trace_events": len(sim.trace),
        "trace_sha256": _trace_digest(sim),
        "counts": sim.control_message_counts(),
        "steps": steps,
    }


def sweep_jsonl(measure: str, directory: Path) -> str:
    """The JSONL stream of one tiny protocol sweep (workers from ``REPRO_WORKERS``)."""
    path = directory / f"{measure}.jsonl"
    run_experiment(_tiny_protocol_spec(measure=measure), sinks=[JsonlSink(path)])
    return path.read_text(encoding="utf-8")


def _key(selector_name: str, metric_name: str) -> str:
    return f"{selector_name}/{metric_name}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("selector_name", SELECTORS)
def test_direct_lossy_run_matches_the_golden_event_stream(golden, selector_name, metric_name):
    expected = golden["direct"][_key(selector_name, metric_name)]
    actual = direct_run(selector_name, metric_name)
    # Compare the per-step state first: a mismatch there says where the runs diverged.
    for index, (got, want) in enumerate(zip(actual["steps"], expected["steps"])):
        assert got == want, f"state after {'warm-up' if index == 0 else f'step {index}'} differs"
    assert actual == expected


@pytest.mark.parametrize("measure", SWEEP_MEASURES)
def test_tiny_protocol_sweep_streams_the_golden_bytes(golden, tmp_path, measure):
    assert sweep_jsonl(measure, tmp_path) == golden["sweeps"][measure]


def _write_golden() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        data = {
            "direct": {
                _key(selector, metric): direct_run(selector, metric)
                for selector in SELECTORS
                for metric in sorted(METRICS)
            },
            "sweeps": {measure: sweep_jsonl(measure, Path(scratch)) for measure in SWEEP_MEASURES},
        }
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_protocol_golden.py --write")
    _write_golden()
