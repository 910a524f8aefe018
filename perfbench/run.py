#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction harness on three pinned preset workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-dense --seed 1 --seconds 38 --trace 0

A workload is a full ``ExperimentSpec`` pinned in ``perfbench/workloads/<name>.json``
(regenerate with ``perfbench/pin.py``).  Every sweep runs serially in a fresh
``perfbench/sweep.py`` process, which imports the harness from ``src/`` and calls
``run_experiment`` with nothing but the spec (plus ``on_error="skip"``, so failed trials
are counted instead of aborting).  ``REPRO_WORKERS``, ``REPRO_METRICS`` and
``REPRO_FAULTS`` are cleared in those processes.

Each workload has a pool of ``POOL_SIZE`` pinned inputs: pool input ``j`` is the spec
with seed ``default_seed + j``, and the digest of its canonical result JSON is committed.
A run seeded with ``seed`` visits the pool inputs ``seed mod POOL_SIZE``, the next, and
so on, wrapping around.  Host speed on a shared machine drifts by tens of percent, and a
single topology's cost varies about as much, so a run takes the median over several
inputs, and overlapping windows of one pool keep runs of different seeds comparable.

``--trace 0`` makes as many sweeps as fit in ``--seconds`` at the workload's pinned
``reference_sweep_s`` (at least ``MIN_SWEEPS``, at most one per pool input).  The count
depends on ``--seconds`` only, never on how fast the code under test runs, so a parent
and a change measure the same inputs.  It reports the end-to-end metrics as medians over
sweeps:

* ``wall_norm_s``: the ``run_experiment`` call, from call to return;
* ``setup_s``: process spawn to ready: interpreter start, imports, registry and spec
  resolution;
* ``peak_rss_mb``: peak resident set of the sweep process.

Both times are scaled to a reference host speed: each sweep's time is multiplied by
``CALIBRATION_REFERENCE_S`` over the time of ``sweep.calibrate``, a fixed pure-Python
loop timed right after set-up and again right after the sweep (the wall time uses the
mean of the two, the set-up time the first).  On a shared 2-vCPU virtual machine, other
tenants slowed sweeps by up to 2x for seconds to minutes at a time; the loop slows with
them but not with the program, so the ratio keeps more of the program's own speed.  The
raw medians are printed and recorded.

``failed_frac`` (failed / attempted trials) is printed too; the result line carries it as
``failed`` and ``attempted``.

``--trace 1`` runs the run's first pool input once untraced and once under
:mod:`tracer`, checks that both results are byte-identical, and reports the per-layer
metrics of ``layer_map.json`` (spans are saved under ``perfbench/out/``).

Outputs are checked on every sweep: the result invariants of ``sweep.result_problems``
and the digest committed for the pool input.  A failed check marks every trial of the
run failed, prints ``"correct": false`` and exits 1.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads"
OUT = HERE / "out"

#: Sweeps per untraced run, at least, so every median has three samples.
MIN_SWEEPS = 3
POOL_SIZE = 8
#: A run on a host much slower than at pinning stops once it has taken this many times
#: ``--seconds``, so a run's length stays bounded.
OVERRUN = 1.2
#: Hard cap on one run, so a stuck sweep cannot hang the benchmark.
RUN_LIMIT_S = 170.0

#: Median time of ``sweep.calibrate`` on the machine the workloads were pinned on.
CALIBRATION_REFERENCE_S = 0.295

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CLEARED_ENV = ("REPRO_WORKERS", "REPRO_METRICS", "REPRO_FAULTS")


class SweepError(RuntimeError):
    """A sweep process failed or did not finish in time."""


def load_workload(name: str) -> dict:
    path = WORKLOADS / f"{name}.json"
    if not path.is_file():
        known = sorted(p.stem for p in WORKLOADS.glob("*.json"))
        raise SystemExit(f"unknown workload {name!r}; known: {known}")
    return json.loads(path.read_text(encoding="utf-8"))


def layer_units() -> dict:
    layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    return {name: entry["unit"] for name, entry in layer_map["metrics"].items()}


def pool_spec(workload: dict, entry: int) -> dict:
    """The spec of pool input ``entry``."""
    return dict(workload["spec"], seed=workload["default_seed"] + entry)


def pool_entries(seed: int, count: int) -> list:
    """The pool inputs a run seeded with ``seed`` visits, in order."""
    return [(seed + index) % POOL_SIZE for index in range(count)]


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    # Fixed string hashing gives every sweep of an input the same dict and set layouts.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job: dict, timeout: float) -> dict:
    """Run ``job`` in a fresh ``sweep.py`` process and return its measurements."""
    args = [sys.executable, str(HERE / "sweep.py")]
    job = dict(job, src=str(SRC))
    job["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            args + [json.dumps(job)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise SweepError(f"sweep did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise SweepError(f"sweep exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: dict, entry: int, sweep: dict) -> list:
    """Problems with one sweep's output of pool input ``entry``."""
    problems = [f"input {entry}: {problem}" for problem in sweep["problems"]]
    if sweep["failed_trials"]:
        problems.append(f"input {entry}: {sweep['failed_trials']} trial(s) failed")
    expected = workload["digests"][entry]
    if sweep["digest"] != expected:
        problems.append(f"input {entry}: digest {sweep['digest'][:12]} != committed {expected[:12]}")
    return problems


def run_untraced(workload: dict, seed: int, seconds: float, log) -> tuple:
    began = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - began)

    count = min(POOL_SIZE, max(MIN_SWEEPS, round(seconds / workload["reference_sweep_s"])))
    sweeps, durations, problems = [], [], []
    for entry in pool_entries(seed, count):
        spawned = time.monotonic()
        sweep = spawn({"spec": pool_spec(workload, entry)}, remaining())
        durations.append(time.monotonic() - spawned)
        sweeps.append(sweep)
        problems += check(workload, entry, sweep)
        log(
            f"sweep {len(sweeps) - 1} input {entry}: wall {sweep['wall_s']:.3f} s, "
            f"setup {sweep['setup_s']:.3f} s, rss {sweep['peak_rss_mb']:.1f} MB, "
            f"digest {sweep['digest'][:12]}"
        )
        projected = time.monotonic() - began + statistics.median(durations)
        if projected > RUN_LIMIT_S or (len(sweeps) >= MIN_SWEEPS and projected > OVERRUN * seconds):
            log(f"stopped after {len(sweeps)} of {count} sweeps: the host is running slow")
            break
    wall_s = statistics.median(s["wall_s"] for s in sweeps)
    setup_s = statistics.median(s["setup_s"] for s in sweeps)
    wall_norm_s = statistics.median(
        CALIBRATION_REFERENCE_S * host_scaled_wall(s) for s in sweeps
    )
    log(f"raw median wall {wall_s:.4f} s, host factor {wall_norm_s / wall_s:.4f}")
    log(f"raw median setup {setup_s:.4f} s")
    metrics = {
        "wall_norm_s": wall_norm_s,
        "setup_s": statistics.median(
            CALIBRATION_REFERENCE_S * s["setup_s"] / s["calibration_s"][0] for s in sweeps
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
    }
    return metrics, END_TO_END_UNITS, sweeps, problems


def host_scaled_wall(sweep: dict) -> float:
    """One sweep's wall time over the mean of its two calibration times."""
    return sweep["wall_s"] / statistics.mean(sweep["calibration_s"])


def run_traced(workload: dict, seed: int, trace_out: Path, log) -> tuple:
    entry = pool_entries(seed, 1)[0]
    spec = pool_spec(workload, entry)
    plain = spawn({"spec": spec}, RUN_LIMIT_S / 2)
    traced = spawn({"spec": spec, "trace": True, "trace_out": str(trace_out)}, RUN_LIMIT_S / 2)
    problems = check(workload, entry, plain) + check(workload, entry, traced)
    for label, sweep in (("untraced", plain), ("traced", traced)):
        log(f"{label}: wall {sweep['wall_s']:.3f} s, digest {sweep['digest'][:12]}")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = host_scaled_wall(traced) / host_scaled_wall(plain) - 1.0
    units = layer_units()
    missing = sorted(set(units) ^ set(metrics))
    if missing:
        problems.append(f"per-layer metrics and layer_map.json disagree on {missing}")
    return metrics, units, [plain, traced], problems


def steal_ticks() -> int:
    """Cumulative ticks the hypervisor took from this machine (``/proc/stat``)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "experiments" / "engine.py").is_file():
        print(f"error: no harness sources under {SRC}", file=sys.stderr)
        return 2
    workload = load_workload(args.workload)

    def log(line: str) -> None:
        print(f"[{args.workload} seed={args.seed}] {line}", flush=True)

    context = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "steal_ticks_start": steal_ticks(),
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        if args.trace:
            metrics, units, sweeps, problems = run_traced(
                workload, args.seed, record_path.with_suffix(".spans.npz"), log
            )
        else:
            metrics, units, sweeps, problems = run_untraced(
                workload, args.seed, args.seconds, log
            )
    except SweepError as exc:
        metrics, units, sweeps, problems = {}, {}, [], [str(exc)]
    context.update(loadavg_end=os.getloadavg(), steal_ticks_end=steal_ticks())

    attempted = sum(s["trials"] for s in sweeps) or 1
    failed = sum(s["failed_trials"] for s in sweeps)
    correct = not problems
    if not correct:
        failed = attempted
    for problem in problems:
        log(f"OUTPUT CHECK FAILED: {problem}")
    log(f"context {json.dumps(context)}")
    rows = [(name, metrics[name], units[name]) for name in units if name in metrics]
    rows.append(("failed_frac", failed / attempted, "ratio"))
    for name, value, unit in rows:
        log(f"{name:<32} {value:>14.6g} {unit}")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "context": context, "sweeps": sweeps, "problems": problems, "metrics": metrics}
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units
                    if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
