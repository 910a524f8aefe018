"""Fault-injection suite for the crash-resilient sweep engine.

Headline invariant: a sweep killed at an arbitrary density boundary and resumed via
``--resume`` produces final JSON/JSONL **byte-identical** to an uninterrupted run, both
serial and under ``REPRO_WORKERS=2``; a SIGKILLed worker is survived by respawn-and-retry
with the exact same trial payloads; a poisoned trial under ``--on-error skip`` becomes a
structured failure event instead of an abort.  Every fault here is injected
deterministically through :mod:`repro.testing.faults` -- nothing depends on timing luck.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import sweep_cli
from repro.experiments.checkpoint import (
    CheckpointError,
    load_checkpoint,
    point_from_dict,
    spec_hash,
)
from repro.experiments.engine import run_experiment
from repro.experiments.results import SeriesPoint
from repro.experiments.runner import (
    TrialExecutionError,
    TrialFailure,
    _backoff_delay,
    resolve_max_retries,
    resolve_trial_timeout,
    resolve_workers,
)
from repro.experiments.sinks import JsonlSink, MemorySink, ResultSink
from repro.experiments.spec import ExperimentSpec
from repro.experiments.stats import summarize
from repro.testing.faults import (
    FaultPlan,
    FaultPlanError,
    FaultySink,
    InjectedFault,
    apply_trial_faults,
    parse_fault_plans,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_SPEC = REPO_ROOT / "examples" / "specs" / "custom_delay_sweep.json"


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    """No fault/supervision configuration leaks between tests (or in from the outside)."""
    for variable in ("REPRO_FAULTS", "REPRO_WORKERS", "REPRO_MAX_RETRIES", "REPRO_TRIAL_TIMEOUT"):
        monkeypatch.delenv(variable, raising=False)
    # Keep the deadline fallback short: crash detection is PID-watch based, but a
    # pathological scheduling stall should fail a test in seconds, not minutes.
    monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "30")


def run_sweep(tmp_path: Path, tag: str, *extra: str) -> dict:
    """Run the committed example spec through the CLI; return its output file contents."""
    jsonl = tmp_path / f"{tag}.jsonl"
    json_out = tmp_path / f"{tag}.json"
    argv = ["--spec", str(EXAMPLE_SPEC), "--quiet", "--jsonl", str(jsonl), "--json", str(json_out)]
    argv += list(extra)
    exit_code = sweep_cli.main(argv)
    return {
        "exit_code": exit_code,
        "jsonl_path": jsonl,
        "jsonl": jsonl.read_text(),
        "json": json_out.read_text() if json_out.exists() else None,
    }


# ---------------------------------------------------------------------- fault plan parsing


class TestFaultPlans:
    def test_parse_round_trip(self):
        plans = parse_fault_plans("raise@density=9,run=0; kill@density=6.5,run=2,attempts=1")
        assert plans == [
            FaultPlan(kind="raise", density=9.0, run_index=0, attempts=None),
            FaultPlan(kind="kill", density=6.5, run_index=2, attempts=1),
        ]

    def test_unknown_kind_and_key_are_errors(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            parse_fault_plans("explode@density=1,run=0")
        with pytest.raises(FaultPlanError, match="unknown fault key"):
            parse_fault_plans("raise@density=1,run=0,worker=3")
        with pytest.raises(FaultPlanError, match="density"):
            parse_fault_plans("raise@run=0")

    def test_attempt_bounded_matching(self):
        plan = FaultPlan(kind="raise", density=9.0, run_index=1, attempts=2)
        assert plan.matches(9.0, 1, 0) and plan.matches(9.0, 1, 1)
        assert not plan.matches(9.0, 1, 2)  # recovered on the third attempt
        assert not plan.matches(9.0, 0, 0) and not plan.matches(6.0, 1, 0)
        unbounded = FaultPlan(kind="raise", density=9.0, run_index=1)
        assert unbounded.matches(9.0, 1, 99)

    def test_apply_trial_faults_is_a_no_op_without_the_env(self):
        apply_trial_faults(9.0, 0, 0)  # must not raise

    def test_apply_trial_faults_fires_on_address_match(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=9,run=1")
        apply_trial_faults(9.0, 0, 0)
        apply_trial_faults(6.0, 1, 0)
        with pytest.raises(InjectedFault):
            apply_trial_faults(9.0, 1, 0)


# ---------------------------------------------------------------------- kill-and-resume


class TestKillAndResume:
    @pytest.mark.parametrize("workers", [None, "2"], ids=["serial", "REPRO_WORKERS=2"])
    def test_killed_at_density_boundary_resumes_byte_identical(self, tmp_path, monkeypatch, workers):
        """The headline invariant: abort mid-sweep at a density boundary, resume, and the
        final JSONL and JSON are byte-for-byte the uninterrupted run's."""
        if workers is not None:
            monkeypatch.setenv("REPRO_WORKERS", workers)
        clean = run_sweep(tmp_path, "clean", "--runs", "2")
        assert clean["exit_code"] == 0

        # The run that dies: every attempt at (density=9, run=0) raises, on-error=fail.
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=9,run=0")
        with pytest.raises(TrialExecutionError):
            run_sweep(tmp_path, "killed", "--runs", "2")
        monkeypatch.delenv("REPRO_FAULTS")

        killed_events = [json.loads(line) for line in (tmp_path / "killed.jsonl").read_text().splitlines()]
        assert [event["event"] for event in killed_events if event["event"] == "density"] == ["density"]

        resumed = run_sweep(tmp_path, "killed", "--resume", str(tmp_path / "killed.jsonl"), "--runs", "2")
        assert resumed["exit_code"] == 0
        assert resumed["jsonl"] == clean["jsonl"]
        assert resumed["json"] == clean["json"]

    def test_sigkilled_process_resumes_byte_identical(self, tmp_path):
        """The literal acceptance scenario: SIGKILL the sweep *process* mid-density via an
        injected kill fault, then resume the orphaned stream."""
        clean = run_sweep(tmp_path, "clean")
        jsonl = tmp_path / "killed.jsonl"
        json_out = tmp_path / "killed.json"
        env = {
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "REPRO_FAULTS": "kill@density=9,run=0",
        }
        env.pop("REPRO_WORKERS", None)  # serial: the kill hits the sweep process itself
        process = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments.sweep_cli",
                "--spec",
                str(EXAMPLE_SPEC),
                "--quiet",
                "--jsonl",
                str(jsonl),
                "--json",
                str(json_out),
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL
        assert not json_out.exists()  # buffered report sink never wrote a partial file
        checkpointed = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [e["event"] for e in checkpointed if e["event"] == "density"] == ["density"]

        resumed = run_sweep(tmp_path, "killed", "--resume", str(jsonl))
        assert resumed["exit_code"] == 0
        assert resumed["jsonl"] == clean["jsonl"]
        assert resumed["json"] == clean["json"]

    def test_resume_of_a_complete_stream_is_idempotent(self, tmp_path):
        clean = run_sweep(tmp_path, "clean")
        again = run_sweep(tmp_path, "clean", "--resume", str(tmp_path / "clean.jsonl"))
        assert again["exit_code"] == 0
        assert again["jsonl"] == clean["jsonl"] and again["json"] == clean["json"]

    def test_resume_alone_takes_the_spec_from_the_stream(self, tmp_path):
        clean = run_sweep(tmp_path, "clean")
        redo = tmp_path / "clean.jsonl"
        exit_code = sweep_cli.main(["--resume", str(redo), "--quiet"])
        assert exit_code == 0
        assert redo.read_text() == clean["jsonl"]

    def test_spec_hash_guard_refuses_a_mismatched_spec(self, tmp_path, capsys):
        run_sweep(tmp_path, "clean")
        with pytest.raises(SystemExit):
            sweep_cli.main(
                ["--resume", str(tmp_path / "clean.jsonl"), "--quiet", "--runs", "5"]
            )
        assert "refusing to resume" in capsys.readouterr().err

    def test_engine_level_guard_also_refuses(self, tmp_path):
        run_sweep(tmp_path, "clean")
        other = ExperimentSpec.load(EXAMPLE_SPEC).with_overrides(runs=5)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_experiment(other, resume_from=tmp_path / "clean.jsonl")

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        """A SIGKILL mid-write leaves a torn last line; everything before it stands."""
        clean = run_sweep(tmp_path, "clean")
        stream = tmp_path / "clean.jsonl"
        lines = stream.read_text().splitlines()
        torn = "\n".join(lines[:2]) + '\n{"event": "densi'
        stream.write_text(torn)
        checkpoint = load_checkpoint(stream)
        assert checkpoint.densities == {} and not checkpoint.complete
        resumed = run_sweep(tmp_path, "clean", "--resume", str(stream))
        assert resumed["jsonl"] == clean["jsonl"]

    def test_stream_without_sweep_start_is_a_clean_error(self, tmp_path, capsys):
        stream = tmp_path / "not-a-checkpoint.jsonl"
        stream.write_text('{"event": "density", "density": 6.0, "series": {}}\n')
        with pytest.raises(CheckpointError, match="no sweep_start"):
            load_checkpoint(stream)
        with pytest.raises(SystemExit):
            sweep_cli.main(["--resume", str(stream), "--quiet"])
        assert "cannot resume" in capsys.readouterr().err

    def test_mid_stream_corruption_is_an_error(self, tmp_path):
        run_sweep(tmp_path, "clean")
        stream = tmp_path / "clean.jsonl"
        lines = stream.read_text().splitlines()
        lines[1] = "corrupt {{{"
        stream.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=":2"):
            load_checkpoint(stream)

    def test_unfinished_density_trials_are_discarded(self, tmp_path):
        """Trial lines after the last density event belong to a density that never
        finished; the resume re-runs that density from scratch."""
        clean = run_sweep(tmp_path, "clean")
        stream = tmp_path / "clean.jsonl"
        events = [json.loads(line) for line in stream.read_text().splitlines()]
        density_indices = [i for i, e in enumerate(events) if e["event"] == "density"]
        # Cut after the first density's trial-of-the-second-density: keep everything up
        # to (and including) the second density's trial line, drop the rest.
        cut = [e for e in events[: density_indices[1]] if e["event"] != "result"]
        stream.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in cut))
        checkpoint = load_checkpoint(stream)
        assert list(checkpoint.densities) == [6.0]
        assert checkpoint.densities[6.0].trials  # the finished density kept its trials
        resumed = run_sweep(tmp_path, "clean", "--resume", str(stream))
        assert resumed["jsonl"] == clean["jsonl"] and resumed["json"] == clean["json"]


# ---------------------------------------------------------------------- worker supervision


class TestWorkerSupervision:
    def test_sigkilled_worker_is_respawned_and_the_trial_retried(self, tmp_path, monkeypatch):
        """A worker process SIGKILLed mid-density must not take the sweep down, and the
        retried trial must reproduce the exact payload bytes of an undisturbed run."""
        clean = run_sweep(tmp_path, "clean", "--runs", "2")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_FAULTS", "kill@density=9,run=0,attempts=1")
        recovered = run_sweep(tmp_path, "recovered", "--runs", "2")
        assert recovered["exit_code"] == 0
        assert recovered["jsonl"] == clean["jsonl"]
        assert recovered["json"] == clean["json"]

    @pytest.mark.parametrize("workers", [None, "2"], ids=["serial", "REPRO_WORKERS=2"])
    def test_transient_raise_is_retried_to_bit_identity(self, tmp_path, monkeypatch, workers):
        clean = run_sweep(tmp_path, "clean", "--runs", "2")
        if workers is not None:
            monkeypatch.setenv("REPRO_WORKERS", workers)
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=9,run=1,attempts=2")
        recovered = run_sweep(tmp_path, "recovered", "--runs", "2")
        assert recovered["exit_code"] == 0
        assert recovered["jsonl"] == clean["jsonl"]
        assert recovered["json"] == clean["json"]

    @pytest.mark.parametrize("workers", [None, "2"], ids=["serial", "REPRO_WORKERS=2"])
    def test_poisoned_trial_aborts_under_fail(self, tmp_path, monkeypatch, workers):
        if workers is not None:
            monkeypatch.setenv("REPRO_WORKERS", workers)
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=6,run=0")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "1")
        with pytest.raises(TrialExecutionError) as caught:
            run_sweep(tmp_path, "poisoned", "--runs", "2")
        failure = caught.value.failure
        assert (failure.density, failure.run_index) == (6.0, 0)
        assert failure.error_type == "InjectedFault" and failure.attempts == 2

    @pytest.mark.parametrize("workers", [None, "2"], ids=["serial", "REPRO_WORKERS=2"])
    def test_on_error_skip_records_structured_failure(self, tmp_path, monkeypatch, workers):
        """The acceptance case: a poisoned trial under --on-error skip completes the sweep
        with a trial_error event and per-point failure counts instead of aborting."""
        if workers is not None:
            monkeypatch.setenv("REPRO_WORKERS", workers)
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=6,run=0")
        result = run_sweep(tmp_path, "skipped", "--runs", "2", "--on-error", "skip")
        assert result["exit_code"] == 0

        events = [json.loads(line) for line in result["jsonl"].splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds.count("trial_error") == 1 and kinds.count("density") == 2
        error = next(event for event in events if event["event"] == "trial_error")
        assert error["density"] == 6.0 and error["run"] == 0
        assert error["error_type"] == "InjectedFault" and error["attempts"] == 3

        spec = ExperimentSpec.load(EXAMPLE_SPEC)
        payload = json.loads(result["json"])[spec.experiment_id]
        for name in spec.selectors:
            by_density = {point["density"]: point for point in payload["series"][name]}
            assert by_density[6.0]["failed_trials"] == 1.0
            assert "failed_trials" not in by_density[9.0]

    def test_on_error_skip_is_bit_identical_serial_vs_parallel(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=6,run=0")
        serial = run_sweep(tmp_path, "serial", "--runs", "2", "--on-error", "skip")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        parallel = run_sweep(tmp_path, "parallel", "--runs", "2", "--on-error", "skip")
        assert parallel["jsonl"] == serial["jsonl"]
        assert parallel["json"] == serial["json"]

    def test_failure_stream_resumes_byte_identically(self, tmp_path, monkeypatch):
        """trial_error events are part of the checkpoint: replaying a stream that contains
        recorded failures reproduces it byte-for-byte."""
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=6,run=0")
        first = run_sweep(tmp_path, "failures", "--runs", "2", "--on-error", "skip")
        monkeypatch.delenv("REPRO_FAULTS")
        # Resume the complete stream without the fault: nothing re-runs, so the recorded
        # failure must be replayed, not recomputed away.
        again = run_sweep(
            tmp_path, "failures", "--resume", str(tmp_path / "failures.jsonl"),
            "--runs", "2", "--on-error", "skip",
        )
        assert again["jsonl"] == first["jsonl"] and again["json"] == first["json"]

    def test_backoff_is_bounded_exponential(self):
        delays = [_backoff_delay(attempt) for attempt in range(8)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.05)
        assert delays[1] == pytest.approx(0.10)
        assert max(delays) == 2.0  # bounded

    def test_on_error_rejects_unknown_modes(self):
        from repro.experiments.runner import map_trials

        spec = ExperimentSpec.load(EXAMPLE_SPEC)
        with pytest.raises(ValueError, match="on_error"):
            map_trials(spec, None, 6.0, lambda t: t, on_error="explode")


# ---------------------------------------------------------------------- env validation


class TestSupervisionEnvValidation:
    @pytest.mark.parametrize("bad", ["0", "-1", "-8"])
    def test_repro_workers_rejects_non_positive(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_repro_workers_rejects_absurd_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "100000")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_repro_workers_rejects_garbage_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "two")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_workers_argument_keeps_its_documented_zero_meaning(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")  # env zero is an error ...
        assert resolve_workers(0) >= 1  # ... but the --workers 0 argument is per-CPU
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)
        with pytest.raises(ValueError, match="sanity cap"):
            resolve_workers(99999)

    def test_max_retries_parsing(self, monkeypatch):
        assert resolve_max_retries() == 2
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        assert resolve_max_retries() == 5
        assert resolve_max_retries(0) == 0
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_MAX_RETRIES"):
            resolve_max_retries()
        monkeypatch.setenv("REPRO_MAX_RETRIES", "many")
        with pytest.raises(ValueError, match="REPRO_MAX_RETRIES"):
            resolve_max_retries()

    def test_trial_timeout_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIAL_TIMEOUT", raising=False)
        assert resolve_trial_timeout() == 300.0
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "7.5")
        assert resolve_trial_timeout() == 7.5
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "0")
        assert resolve_trial_timeout() is None  # 0 disables the deadline
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "-3")
        with pytest.raises(ValueError, match="REPRO_TRIAL_TIMEOUT"):
            resolve_trial_timeout()
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_TRIAL_TIMEOUT"):
            resolve_trial_timeout()
        # NaN and infinity would never trip the supervisor's deadline; only 0 disables it.
        for raw in ("nan", "inf", "-inf", "Infinity"):
            monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", raw)
            with pytest.raises(ValueError, match="REPRO_TRIAL_TIMEOUT"):
                resolve_trial_timeout()
        monkeypatch.delenv("REPRO_TRIAL_TIMEOUT")
        assert resolve_trial_timeout(12.0) == 12.0
        assert resolve_trial_timeout(0) is None
        for value in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="REPRO_TRIAL_TIMEOUT"):
                resolve_trial_timeout(value)


# ---------------------------------------------------------------------- sink error paths


class _WarningRecorder(ResultSink):
    def __init__(self) -> None:
        self.warnings = []

    def on_warning(self, spec, message) -> None:
        self.warnings.append(message)


class TestSinkErrorPaths:
    def test_unwritable_jsonl_fails_fast_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("a regular file where a directory is needed")
        ran = []
        monkeypatch.setattr(sweep_cli, "run_experiment", lambda *a, **k: ran.append(1))
        with pytest.raises(SystemExit):
            sweep_cli.main(
                [
                    "--spec",
                    str(EXAMPLE_SPEC),
                    "--quiet",
                    "--jsonl",
                    str(blocker / "out.jsonl"),
                ]
            )
        assert "cannot write the JSONL stream" in capsys.readouterr().err
        assert not ran  # the error fired before any sweep work started

    def test_raising_sink_is_quarantined_not_fatal(self):
        spec = ExperimentSpec.load(EXAMPLE_SPEC)
        faulty = FaultySink(fail_on="on_density")
        memory = MemorySink()
        recorder = _WarningRecorder()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = run_experiment(spec, sinks=(faulty, memory, recorder))
        # The sweep completed, the healthy sinks saw everything...
        assert memory.results == [result]
        assert len(recorder.warnings) == 1 and "FaultySink" in recorder.warnings[0]
        # ...and the offender was dropped at its first raise, never called again.
        assert faulty.calls.count("on_density") == 1
        assert "on_result" not in faulty.calls

    def test_mid_run_oserror_in_jsonl_sink_is_quarantined(self, tmp_path):
        """The satellite case verbatim: an injected OSError on a sink write mid-run must
        quarantine the sink, not kill the sweep."""
        spec = ExperimentSpec.load(EXAMPLE_SPEC)
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        original_write = sink._write
        writes = []

        def failing_write(record):
            writes.append(record["event"])
            if len(writes) == 3:
                raise OSError("disk full (injected)")
            original_write(record)

        sink._write = failing_write
        recorder = _WarningRecorder()
        with pytest.warns(RuntimeWarning, match="JsonlSink"):
            result = run_experiment(spec, sinks=(sink, recorder))
        sink.close()
        assert result.series  # the sweep finished with data
        assert recorder.warnings and "quarantined" in recorder.warnings[0]
        on_disk = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(on_disk) == 2  # everything before the injected failure was flushed

    def test_keyboard_interrupt_is_not_quarantined(self):
        spec = ExperimentSpec.load(EXAMPLE_SPEC)

        class CtrlC(ResultSink):
            def on_density(self, spec, density, points):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec, sinks=(CtrlC(),))

    def test_engine_with_zero_sinks_returns_a_correct_result(self):
        spec = ExperimentSpec.load(EXAMPLE_SPEC)
        memory = MemorySink()
        with_sinks = run_experiment(spec, sinks=(memory,))
        bare = run_experiment(spec)
        assert bare.to_dict() == with_sinks.to_dict() == memory.results[0].to_dict()


# ---------------------------------------------------------------------- interrupt handling


class TestKeyboardInterruptExits:
    def test_sweep_cli_exits_130_and_points_at_the_checkpoint(self, tmp_path, capsys, monkeypatch):
        jsonl = tmp_path / "events.jsonl"

        def interrupted_run(spec, sinks=(), **kwargs):
            for sink in sinks:
                sink.on_sweep_start(spec)
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_cli, "run_experiment", interrupted_run)
        exit_code = sweep_cli.main(
            ["--spec", str(EXAMPLE_SPEC), "--quiet", "--jsonl", str(jsonl)]
        )
        assert exit_code == 130
        err = capsys.readouterr().err
        assert str(jsonl) in err and "--resume" in err
        # The stream was flushed and closed: the events so far are on disk.
        events = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [event["event"] for event in events] == ["sweep_start"]

    def test_sweep_cli_exits_130_without_jsonl_too(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sweep_cli, "run_experiment", lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        exit_code = sweep_cli.main(["--spec", str(EXAMPLE_SPEC), "--quiet"])
        assert exit_code == 130
        assert "no --jsonl stream" in capsys.readouterr().err

    def test_figures_cli_exits_130_and_leaves_outputs_alone(self, tmp_path, capsys, monkeypatch):
        output = tmp_path / "report.txt"
        output.write_text("previous good report")
        monkeypatch.setattr(
            sweep_cli, "run_experiment", lambda *a, **k: (_ for _ in ()).throw(KeyboardInterrupt())
        )
        exit_code = sweep_cli.main(
            ["--figure", "6", "--profile", "smoke", "--quiet", "--output", str(output)]
        )
        assert exit_code == 130
        assert "interrupted" in capsys.readouterr().err
        assert output.read_text() == "previous good report"


# ---------------------------------------------------------------------- checkpoint pieces


class TestCheckpointModule:
    def test_spec_hash_is_stable_and_sensitive(self):
        spec = ExperimentSpec.load(EXAMPLE_SPEC)
        assert spec_hash(spec) == spec_hash(ExperimentSpec.from_dict(spec.to_dict()))
        assert spec_hash(spec) != spec_hash(spec.with_overrides(seed=spec.seed + 1))

    def test_point_round_trips_through_its_dict_form(self):
        point = SeriesPoint(
            density=9.0,
            summary=summarize([1.0, 2.0, 4.0]),
            extra={"delivery_ratio": 0.5, "per_step_mean": [0.1, 0.2]},
        )
        rebuilt = point_from_dict(point.to_dict())
        assert rebuilt.to_dict() == point.to_dict()
        assert math.isnan(rebuilt.summary.minimum)  # min/max are not serialized

    def test_loaded_checkpoint_carries_trials_and_points(self, tmp_path):
        run_sweep(tmp_path, "clean", "--runs", "2")
        checkpoint = load_checkpoint(tmp_path / "clean.jsonl")
        spec = ExperimentSpec.load(EXAMPLE_SPEC).with_overrides(runs=2)
        assert checkpoint.spec.to_dict() == spec.to_dict() and checkpoint.complete
        assert list(checkpoint.densities) == [6.0, 9.0]
        for density_checkpoint in checkpoint.densities.values():
            assert [run for run, _ in density_checkpoint.trials] == [0, 1]
            assert set(density_checkpoint.points) == set(spec.selectors)

    def test_failure_records_round_trip_as_trial_failures(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise@density=6,run=1")
        run_sweep(tmp_path, "failing", "--runs", "2", "--on-error", "skip")
        checkpoint = load_checkpoint(tmp_path / "failing.jsonl")
        records = dict(checkpoint.densities[6.0].trials)
        assert isinstance(records[1], TrialFailure)
        assert records[1].error_type == "InjectedFault" and records[1].attempts == 3


# ---------------------------------------------------------------------- checkpoint contract


@pytest.fixture(scope="module")
def smoke_stream(tmp_path_factory) -> bytes:
    """The finished two-density stream of the committed example spec."""
    return run_sweep(tmp_path_factory.mktemp("smoke"), "clean")["jsonl"].encode("utf-8")


def _edited(line: bytes, change) -> bytes:
    record = json.loads(line)
    change(record)
    return json.dumps(record, sort_keys=True).encode("utf-8")


#: name -> (damaged line number, how the stream's lines are damaged).  Lines 1-6 of the
#: smoke stream: sweep_start, trial, density, trial, density, result.
MALFORMED = {
    "array-line": (3, lambda lines: lines[:2] + [b"[1, 2]"] + lines[2:]),
    "trial-without-payload": (
        2,
        lambda lines: lines[:1] + [_edited(lines[1], lambda r: r.pop("payload"))] + lines[2:],
    ),
    "density-without-series": (
        3,
        lambda lines: lines[:2] + [_edited(lines[2], lambda r: r.pop("series"))] + lines[3:],
    ),
    "non-numeric-density": (
        3,
        lambda lines: lines[:2] + [_edited(lines[2], lambda r: r.update(density="x"))] + lines[3:],
    ),
    "point-without-count": (
        3,
        lambda lines: lines[:2]
        + [_edited(lines[2], lambda r: r["series"]["fnbp"].pop("count"))]
        + lines[3:],
    ),
    "non-utf8-byte": (3, lambda lines: lines[:2] + [b'{"event": "warning", "message": "\xff"}'] + lines[2:]),
}

JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=6,
)
EVENT_FIELDS = {
    "sweep_start": ("spec",),
    "trial": ("density", "run", "payload"),
    "trial_error": ("density", "run", "error", "error_type", "attempts"),
    "density": ("density", "series"),
    "result": ("result",),
}


@st.composite
def junk_events(draw):
    """An event object with some of its fields, each holding arbitrary JSON."""
    event = draw(st.sampled_from(sorted(EVENT_FIELDS)))
    present = draw(st.lists(st.sampled_from(EVENT_FIELDS[event]), unique=True))
    record = {"event": event, **{name: draw(JSON_VALUES) for name in present}}
    return json.dumps(record).encode("utf-8")


@st.composite
def damaged_events(draw, lines):
    """A line of the stream with one field (of the event, or of one of its points)
    dropped or replaced by arbitrary JSON."""
    record = json.loads(draw(st.sampled_from(lines)))
    target = record
    if record["event"] == "density" and draw(st.booleans()):
        target = record["series"][draw(st.sampled_from(sorted(record["series"])))]
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(JSON_VALUES)
    return json.dumps(record).encode("utf-8")


def _points(checkpoint, density) -> str:
    return json.dumps(
        {name: point.to_dict() for name, point in checkpoint.densities[density].points.items()},
        sort_keys=True,
    )


class TestCheckpointContract:
    """``load_checkpoint`` either loads or raises :class:`CheckpointError`, whatever the
    damage; ``repro-sweep --resume`` turns the error into exit status 2 naming the line."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_line_names_its_line(self, smoke_stream, tmp_path, capsys, case):
        number, damage = MALFORMED[case]
        stream = tmp_path / "damaged.jsonl"
        stream.write_bytes(b"\n".join(damage(smoke_stream.splitlines())) + b"\n")
        where = f"{stream}:{number}:"
        with pytest.raises(CheckpointError, match=re.escape(where)):
            load_checkpoint(stream)
        with pytest.raises(SystemExit) as exit_info:
            sweep_cli.main(["--resume", str(stream), "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and where in err and "Traceback" not in err

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_truncation_loads_a_prefix_or_raises(self, smoke_stream, tmp_path, data):
        full_path = tmp_path / "full.jsonl"
        full_path.write_bytes(smoke_stream)
        full = load_checkpoint(full_path)
        cut = data.draw(st.integers(0, len(smoke_stream)), label="cut")
        stream = tmp_path / "cut.jsonl"
        stream.write_bytes(smoke_stream[:cut])
        try:
            checkpoint = load_checkpoint(stream)
        except CheckpointError:
            return
        densities = list(checkpoint.densities)
        assert densities == list(full.densities)[: len(densities)]
        for density in densities:
            assert _points(checkpoint, density) == _points(full, density)

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_a_junk_line_loads_or_raises(self, smoke_stream, tmp_path, data):
        lines = smoke_stream.splitlines()
        junk = data.draw(
            st.one_of(
                st.text(max_size=40).map(lambda text: text.encode("utf-8")),
                st.binary(max_size=40),
                JSON_VALUES.map(lambda value: json.dumps(value).encode("utf-8")),
                junk_events(),
                damaged_events(lines),
            ),
            label="junk",
        )
        position = data.draw(st.integers(1, len(lines) - 1), label="position")
        replaces = data.draw(st.booleans(), label="replaces")
        stream = tmp_path / "junk.jsonl"
        stream.write_bytes(b"\n".join(lines[:position] + [junk] + lines[position + replaces :]) + b"\n")
        try:
            load_checkpoint(stream)
        except CheckpointError:
            pass
