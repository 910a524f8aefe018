"""The command-line interface: spec-driven sweeps and the paper's figures.

Installed as ``repro-sweep`` and, under its old name, ``repro-figures`` (both name this
module's :func:`main`; see ``pyproject.toml``).  Runs *any* experiment the registries can
express, the paper's four figures included::

    repro-sweep --list                                   # what can I plug together?
    repro-sweep --figure 6 --profile quick
    repro-sweep --all --profile paper --output results.txt --json results.json
    repro-sweep --spec examples/specs/custom_delay_sweep.json --jsonl out.jsonl
    repro-sweep --preset fig6 --densities 12,18,24 --runs 10 --json fig6_custom.json
    repro-sweep --measure ans-size --metric jitter --densities 10,20 --runs 2 \\
        --selectors fnbp,olsr-mpr --id jitter-ans --title "Jitter ANS sizes"

A sweep is described by an :class:`~repro.experiments.spec.ExperimentSpec`, obtained from
``--spec file.json``, from a registered preset (``--preset fig8``), from a figure narrowed
to a parameter profile (``--figure 8 --profile smoke``; the profile defaults to ``quick``,
see :data:`~repro.experiments.presets.PROFILES`), or built from scratch (requires at least
``--measure``, ``--metric`` and ``--densities``); every per-field override flag applies on
top.  ``--all`` runs the four figures, in figure order, into one report.  Results stream
through the sink API: the text table always prints to stdout, ``--output`` adds a
text-report file, ``--json`` the experiment-keyed JSON document, and ``--jsonl`` an
incremental line-per-event file whose per-density checkpoints survive a killed run.

A killed run is not a lost run: ``repro-sweep --resume out.jsonl`` reads the stream back
(:mod:`repro.experiments.checkpoint`), skips the finished densities and rewrites the
stream seamlessly -- the resumed output files are byte-identical to an uninterrupted
run's.  A spec-hash guard refuses to resume under a different spec.  ``--on-error skip``
lets a long sweep outlive trials that fail every retry (structured ``trial_error`` events
plus per-point failure counts instead of an abort); ctrl-C exits with code 130 after
flushing the checkpoint stream and printing where it lives.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.experiments.checkpoint import Checkpoint, CheckpointError, load_checkpoint, spec_hash
from repro.experiments.engine import run_experiment
from repro.experiments.presets import FIGURE_PRESETS, PROFILES, figure_spec
from repro.experiments.reporting import render_report
from repro.experiments.results import ExperimentResult
from repro.experiments.sinks import (
    JsonlSink,
    JsonSink,
    MetricsCapture,
    MetricsJsonlSink,
    ResultSink,
    TextReportSink,
    stderr_progress_sink,
)
from repro.experiments.spec import ExperimentSpec
from repro.obs import resolve_metrics
from repro.obs.report import build_profile, render_metrics_summary
from repro.registry import ALL_REGISTRIES, PRESETS


def parse_name_list(text: str) -> Tuple[str, ...]:
    """A comma-separated list of registry names -> tuple (``"a,b"`` -> ``("a", "b")``)."""
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of names, got {text!r}")
    return names


def parse_densities(text: str) -> Tuple[float, ...]:
    """A comma-separated density list -> tuple of floats (``"10,15"`` -> ``(10.0, 15.0)``)."""
    try:
        densities = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc
    if not densities:
        raise argparse.ArgumentTypeError(f"expected at least one density, got {text!r}")
    return densities


#: Sentinel distinguishing "--node-sample absent" from "--node-sample all" (which parses
#: to None, the spec's every-node value).
NODE_SAMPLE_UNSET = object()


def parse_node_sample(text: str) -> Optional[int]:
    """Nodes sampled per topology; ``0`` or ``all`` means every node (``None``)."""
    if text.strip().lower() == "all":
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer or 'all', got {text!r}") from exc
    return None if value == 0 else value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Run a spec-driven density sweep against the plugin registries, or "
        "regenerate the evaluation figures of the QOLSR/FNBP paper.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--spec", default=None, help="load the experiment spec from this JSON file")
    source.add_argument("--preset", default=None, choices=None, help="start from a registered spec preset (e.g. fig6)")
    source.add_argument(
        "--figure", type=int, choices=sorted(FIGURE_PRESETS), help="run one of the paper's figures"
    )
    source.add_argument("--all", action="store_true", help="run every figure into one report")
    parser.add_argument(
        "--profile",
        choices=tuple(PROFILES),
        default=None,
        help="parameter profile of --figure/--all (default quick; paper = 100 runs at the "
        "paper's densities)",
    )
    parser.add_argument("--list", action="store_true", help="list every registry's entries and exit")
    parser.add_argument(
        "--resume",
        default=None,
        metavar="JSONL",
        help="resume a killed sweep from this JSONL checkpoint stream (finished densities "
        "are skipped and re-emitted; without --spec/--preset the spec comes from the "
        "stream itself, otherwise it must hash-match the stream's); also the default "
        "--jsonl output path",
    )

    overrides = parser.add_argument_group("spec field overrides")
    overrides.add_argument("--id", dest="experiment_id", default=None, help="experiment id (series key in JSON outputs)")
    overrides.add_argument("--title", default=None, help="human-readable experiment title")
    overrides.add_argument("--measure", default=None, help="measure kind (registry name, e.g. ans-size, overhead)")
    overrides.add_argument("--metric", default=None, help="QoS metric (registry name, e.g. bandwidth, delay)")
    overrides.add_argument("--topology", default=None, help="topology model (registry name, e.g. poisson)")
    overrides.add_argument(
        "--selectors", type=parse_name_list, default=None, help="comma-separated selector registry names"
    )
    overrides.add_argument(
        "--densities", type=parse_densities, default=None, help="comma-separated density values to sweep"
    )
    overrides.add_argument("--runs", type=int, default=None, help="independent topologies per density")
    overrides.add_argument("--pairs", type=int, default=None, help="source/destination pairs per run")
    overrides.add_argument(
        "--node-sample",
        type=parse_node_sample,
        default=NODE_SAMPLE_UNSET,
        help="nodes sampled per topology in set-size measures (0 or 'all' = every node)",
    )
    overrides.add_argument("--seed", type=int, default=None, help="root random seed")
    overrides.add_argument(
        "--timesteps",
        type=int,
        default=None,
        help="timesteps each trial's topology advances through (dynamic sweeps; 0 = static)",
    )
    overrides.add_argument(
        "--step-interval",
        type=float,
        default=None,
        help="simulated time units per timestep (dynamic sweeps)",
    )
    overrides.add_argument(
        "--loss-rate",
        dest="loss_rate",
        type=float,
        default=None,
        help="control-channel loss probability in [0, 1) (protocol measures)",
    )
    overrides.add_argument(
        "--hello-interval",
        dest="hello_interval",
        type=float,
        default=None,
        help="simulated HELLO period in time units (protocol measures)",
    )
    overrides.add_argument(
        "--tc-interval",
        dest="tc_interval",
        type=float,
        default=None,
        help="simulated TC period in time units (protocol measures)",
    )

    outputs = parser.add_argument_group("outputs (result sinks)")
    outputs.add_argument("--output", default=None, help="write the text report to this file")
    outputs.add_argument("--json", dest="json_output", default=None, help="write results as JSON to this file")
    outputs.add_argument(
        "--jsonl",
        dest="jsonl_output",
        default=None,
        help="stream events incrementally to this JSONL file (per-density checkpoints)",
    )

    telemetry = parser.add_argument_group("telemetry (off by default; see docs/observability.md)")
    telemetry.add_argument(
        "--metrics",
        action="store_true",
        help="enable the telemetry layer (deterministic counters + wall-clock spans; "
        "also via REPRO_METRICS=1) and print the end-of-run summary table",
    )
    telemetry.add_argument(
        "--metrics-jsonl",
        dest="metrics_jsonl",
        default=None,
        metavar="JSONL",
        help="stream on_metrics telemetry snapshots to this JSONL file (implies --metrics)",
    )
    telemetry.add_argument(
        "--profile-trials",
        dest="profile_trials",
        default=None,
        metavar="JSON",
        help="write the per-phase span-histogram profile of the run to this JSON file, "
        "diffable against BENCH_selection.json timings (implies --metrics)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per sweep (0 = one per CPU; default: $REPRO_WORKERS or serial); "
        "results are identical to a serial run",
    )
    parser.add_argument(
        "--on-error",
        choices=("fail", "skip"),
        default="fail",
        help="fate of a trial that fails every retry: 'fail' aborts the sweep (default), "
        "'skip' records a structured trial_error event plus per-point failure counts and "
        "lets the sweep complete",
    )
    parser.add_argument("--quiet", action="store_true", help="do not print per-run progress")
    return parser


def render_registries() -> str:
    """The ``--list`` output: every registry section with its entries and descriptions.

    Sections are emitted in sorted section-name order and entries in sorted entry order,
    independent of registration or ``ALL_REGISTRIES`` construction order, so the output is
    stable enough to golden-test (``tests/test_sweep_cli_and_sinks.py`` pins it against
    ``tests/data/sweep_list_golden.txt``).
    """
    lines: List[str] = []
    for section, registry in sorted(ALL_REGISTRIES.items()):
        lines.append(f"{section} ({registry.kind} registry):")
        descriptions = registry.describe()
        if not descriptions:
            lines.append("  (empty)")
        width = max((len(name) for name in descriptions), default=0)
        for name, description in descriptions.items():
            suffix = f"  {description}" if description else ""
            lines.append(f"  {name.ljust(width)}{suffix}")
    return "\n".join(lines)


def _base_spec(
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
    checkpoint: Optional[Checkpoint] = None,
) -> ExperimentSpec:
    if args.spec is not None:
        return ExperimentSpec.load(args.spec)
    if args.preset is not None:
        return PRESETS.create(args.preset)
    if checkpoint is not None:
        # --resume alone: the stream is self-contained, its sweep_start spec is the spec.
        return checkpoint.spec
    missing = [flag for flag, value in (("--measure", args.measure), ("--metric", args.metric), ("--densities", args.densities)) if value is None]
    if missing:
        parser.error(
            "without --spec, --preset, --figure or --all, a sweep needs at least "
            + ", ".join(missing)
            + " (see --list for registry contents)"
        )
    return ExperimentSpec(
        experiment_id=args.experiment_id or "sweep",
        title=args.title or "Ad-hoc sweep",
        measure=args.measure,
        metric=args.metric,
        densities=args.densities,
    )


def _apply_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    overrides = {}
    for spec_field, value in (
        ("experiment_id", args.experiment_id),
        ("title", args.title),
        ("measure", args.measure),
        ("metric", args.metric),
        ("topology", args.topology),
        ("selectors", args.selectors),
        ("densities", args.densities),
        ("runs", args.runs),
        ("pairs_per_run", args.pairs),
        ("seed", args.seed),
        ("timesteps", args.timesteps),
        ("step_interval", args.step_interval),
        ("loss_rate", args.loss_rate),
        ("hello_interval", args.hello_interval),
        ("tc_interval", args.tc_interval),
    ):
        if value is not None:
            overrides[spec_field] = value
    if args.node_sample is not NODE_SAMPLE_UNSET:
        overrides["node_sample"] = args.node_sample
    return spec.with_overrides(**overrides) if overrides else spec


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    figures = args.all or args.figure is not None
    profile = args.profile or "quick"
    if args.profile is not None and not figures:
        parser.error("--profile applies only to --figure or --all")
    if args.all and any(
        (args.experiment_id, args.resume, args.jsonl_output, args.metrics_jsonl, args.profile_trials)
    ):
        # Four sweeps under one id would overwrite each other's results in --json.
        parser.error(
            "--all runs four sweeps; --id, --resume, --jsonl, --metrics-jsonl and "
            "--profile-trials each name a single sweep"
        )

    if args.list:
        print(render_registries())
        return 0

    checkpoint: Optional[Checkpoint] = None
    if args.resume:
        try:
            checkpoint = load_checkpoint(args.resume)
        except (CheckpointError, OSError) as exc:
            parser.error(f"cannot resume: {exc}")

    try:
        if figures:
            numbers = sorted(FIGURE_PRESETS) if args.all else [args.figure]
            bases = [figure_spec(number, profile) for number in numbers]
        else:
            bases = [_base_spec(args, parser, checkpoint)]
        specs = [_apply_overrides(base, args).validate_names() for base in bases]
    except (KeyError, ValueError, OSError) as exc:
        # Unknown registry names, malformed spec files and bad field values all carry
        # self-explanatory messages (the registry errors name their known entries).
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
        parser.error(message)
    header = f"profile={profile}" if figures else f"spec={specs[0].experiment_id}"

    if checkpoint is not None and spec_hash(specs[0]) != checkpoint.spec_hash:
        # The guard the engine would also apply -- surfaced here as a CLI error so a
        # mismatched --spec/--preset/override never even starts a sweep.
        parser.error(
            f"refusing to resume {args.resume}: the requested spec does not match the "
            f"one the stream was written by (spec-hash {spec_hash(specs[0])[:12]}... vs "
            f"{checkpoint.spec_hash[:12]}...); drop the conflicting flags or start a "
            f"fresh sweep without --resume"
        )

    try:
        # --metrics/--metrics-jsonl/--profile-trials force telemetry on; otherwise the
        # REPRO_METRICS environment variable decides (off when unset).
        requested = bool(args.metrics or args.metrics_jsonl or args.profile_trials)
        metrics_enabled = resolve_metrics(True if requested else None)
    except ValueError as exc:
        parser.error(str(exc))

    sinks: List[ResultSink] = []
    if not args.quiet:
        sinks.append(stderr_progress_sink())
    if args.output:
        sinks.append(TextReportSink(args.output, header=header))
    if args.json_output:
        sinks.append(JsonSink(args.json_output))
    jsonl_sink: Optional[JsonlSink] = None
    jsonl_path = args.jsonl_output or args.resume
    if jsonl_path:
        jsonl_sink = JsonlSink(jsonl_path)
        try:
            # Fail fast -- before any trial runs -- rather than losing a sweep to an
            # unwritable path at the first checkpoint flush.  (The probe appends nothing,
            # so a --resume stream at the same path is untouched until re-emission.)
            jsonl_sink.ensure_writable()
        except OSError as exc:
            parser.error(f"cannot write the JSONL stream {jsonl_path}: {exc}")
        sinks.append(jsonl_sink)
    metrics_capture: Optional[MetricsCapture] = None
    metrics_sink: Optional[MetricsJsonlSink] = None
    if metrics_enabled:
        metrics_capture = MetricsCapture()
        sinks.append(metrics_capture)
        if args.metrics_jsonl:
            metrics_sink = MetricsJsonlSink(args.metrics_jsonl)
            try:
                metrics_sink.ensure_writable()
            except OSError as exc:
                parser.error(f"cannot write the metrics JSONL stream {args.metrics_jsonl}: {exc}")
            sinks.append(metrics_sink)

    # The JSONL sink streams incrementally and must keep its per-density checkpoints even
    # when the run dies -- that is its purpose -- so it closes unconditionally.  The text
    # and JSON report sinks buffer and write at close; they are closed only after every
    # sweep succeeded, so a failed run never clobbers existing output files with a
    # partial report.
    results: List[ExperimentResult] = []
    summaries: List[str] = []
    try:
        for spec in specs:
            results.append(
                run_experiment(
                    spec,
                    sinks=sinks,
                    workers=args.workers,
                    resume_from=checkpoint,
                    on_error=args.on_error,
                    metrics=metrics_enabled,
                )
            )
            if metrics_capture is not None and metrics_capture.last is not None:
                summary = render_metrics_summary(metrics_capture.last)
                summaries.append(f"[{spec.experiment_id}] {summary}" if args.all else summary)
    except KeyboardInterrupt:
        # The finally below flushes and closes the checkpoint stream; tell the user where
        # it lives so the interrupted sweep is one --resume away from completion.
        if jsonl_sink is not None:
            print(
                f"interrupted -- per-density checkpoints are in {jsonl_sink.path}; "
                f"resume with: repro-sweep --resume {jsonl_sink.path}",
                file=sys.stderr,
            )
        else:
            print(
                "interrupted -- no --jsonl stream was attached, so nothing was "
                "checkpointed (add --jsonl to make a single sweep resumable)",
                file=sys.stderr,
            )
        return 130
    finally:
        # Both JSONL streams flush incrementally -- their lines surviving a dead run is
        # the point -- so they close unconditionally.
        if jsonl_sink is not None:
            jsonl_sink.close()
        if metrics_sink is not None:
            metrics_sink.close()
    for sink in sinks:
        if sink is not jsonl_sink and sink is not metrics_sink:
            sink.close()
    if args.profile_trials and metrics_capture is not None and metrics_capture.last is not None:
        profile_path = Path(args.profile_trials)
        profile_path.parent.mkdir(parents=True, exist_ok=True)
        profile_path.write_text(
            json.dumps(build_profile(specs[0], metrics_capture.last), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
    print(render_report(results, header=header))
    for summary in summaries:
        print(summary)
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    raise SystemExit(main())
