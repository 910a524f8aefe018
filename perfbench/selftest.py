"""The benchmark's own tests, on smoke-size versions of its workloads.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the repository's default test run: each spawns
sweep processes of its own and takes about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import sweep  # noqa: E402

POOL_SIZE = run.POOL_SIZE

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]
#: Spec overrides that shrink each workload to a second or so per sweep.
SMOKE = {
    "fig8-dense": {"densities": [8.0]},
    "mobility-churn": {"densities": [30.0], "timesteps": 3},
    "protocol-convergence": {"densities": [15.0], "timesteps": 2},
}
SEED = 5
#: Smoke runs draw from a two-input pool, so the fixture pins two digests per workload.
SMOKE_POOL = 2
COUNTS = ("core.select_calls", "mobility.links_flipped", "protocol.events",
          "protocol.loss_draws", "olsr.tc_updates")


@pytest.fixture(autouse=True)
def smoke_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "POOL_SIZE", SMOKE_POOL)
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.fixture(scope="module")
def smoke_digests() -> dict:
    """The smoke spec's digest for each pool input, one fresh process each."""
    digests = {}
    for name in WORKLOAD_NAMES:
        workload = smoke_workload(name)
        digests[name] = [
            run.spawn({"spec": run.pool_spec(workload, entry)}, 60)["digest"]
            for entry in range(SMOKE_POOL)
        ]
    return digests


def smoke_workload(name: str, **fields) -> dict:
    workload = run.load_workload(name)
    return dict(workload, spec=dict(workload["spec"], **SMOKE[name]), **fields)


def run_main(monkeypatch, capsys, workload: dict, trace: int) -> tuple:
    monkeypatch.setattr(run, "load_workload", lambda name: workload)
    code = run.main(["--workload", workload["name"], "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_matches_layer_map_and_workload_files():
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))["metrics"]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, entry["unit"], entry["better"]) for name, entry in layer_map.items()
    ]
    assert sorted(WORKLOAD_NAMES) == sorted(path.stem for path in run.WORKLOADS.glob("*.json"))
    for name in WORKLOAD_NAMES:
        assert len(run.load_workload(name)["digests"]) == POOL_SIZE


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(name, smoke_digests, monkeypatch, capsys):
    workload = smoke_workload(name, digests=smoke_digests[name])
    expected = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    results = {}
    for trace in (0, 1, 1):
        code, lines, result = run_main(monkeypatch, capsys, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0, lines
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert {key: value["unit"] for key, value in result["metrics"].items()} == expected[trace]
        table = [line.split("] ", 1)[1].split() for line in lines if "] " in line]
        for metric, unit in list(expected[trace].items()) + [("failed_frac", "ratio")]:
            assert any(row[0] == metric and row[-1] == unit for row in table), metric
        results.setdefault(trace, []).append(result["metrics"])
    first, second = results[1]
    for count in COUNTS:
        assert first[count]["value"] == second[count]["value"], count
    seconds = [value["value"] for value in first.values() if value["unit"] == "s"]
    assert first["experiments.other_s"]["value"] < 0.1 * sum(seconds)


def test_traced_run_restores_every_wrapper():
    import tracer

    targets = list(tracer.TIMED) + [(tracer.runner, "build_trial", None),
                                    (tracer.SelectionCache, "select_all", None)]
    before = [owner.__dict__.get(attribute) for owner, attribute, _ in targets]
    job = {"src": str(run.SRC), "spec": smoke_workload("protocol-convergence")["spec"]}
    traced = sweep.run_job(dict(job, spawned_at=time.monotonic(), trace=True))
    assert [owner.__dict__.get(attribute) for owner, attribute, _ in targets] == before
    plain = sweep.run_job(dict(job, spawned_at=time.monotonic()))
    assert plain["digest"] == traced["digest"]


def test_perturbed_result_fails_the_output_check(smoke_digests, monkeypatch, capsys):
    digests = list(smoke_digests["mobility-churn"])
    digests[SEED % SMOKE_POOL] = "0" * 64
    workload = smoke_workload("mobility-churn", digests=digests)
    code, lines, result = run_main(monkeypatch, capsys, workload, 0)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("OUTPUT CHECK FAILED" in line for line in lines)

    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(workload["spec"])
    point = {"density": spec.densities[0], "mean": -0.5, "std": 0.0, "count": 3}
    result_dict = {"series": {name: [dict(point)] for name in spec.selectors}}
    assert len(sweep.result_problems(spec, result_dict)) == len(spec.selectors)


def test_exits_nonzero_without_the_harness_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
