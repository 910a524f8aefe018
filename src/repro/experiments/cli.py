"""Command-line interface for regenerating the paper's figures.

Installed as ``repro-figures`` (see ``pyproject.toml``).  Examples::

    repro-figures --figure 6 --profile quick
    repro-figures --all --profile paper --runs 100 --output results.txt --json results.json
    repro-figures --figure 7 --profile smoke --densities 5,8 --node-sample 30

This is the four-figure preset front-end of the generic spec-driven engine: each figure
is a registered :class:`~repro.experiments.spec.ExperimentSpec` preset narrowed to the
chosen profile (:data:`~repro.experiments.presets.PROFILES`, per-metric spec overrides)
and then to the per-field flags, and the file outputs flow through the streaming sink
API (:mod:`repro.experiments.sinks`).  Arbitrary non-figure sweeps belong to
``repro-sweep`` (:mod:`repro.experiments.sweep_cli`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.experiments.engine import run_experiment
from repro.experiments.presets import FIGURE_PRESETS, PROFILES, figure_spec
from repro.experiments.reporting import render_report
from repro.experiments.results import ExperimentResult
from repro.experiments.sinks import JsonSink, ProgressSink, ResultSink, TextReportSink
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep_cli import parse_densities, parse_node_sample, NODE_SAMPLE_UNSET


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description="Regenerate the evaluation figures of the QOLSR/FNBP paper.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--figure", type=int, choices=sorted(FIGURE_PRESETS), help="figure number to run")
    group.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument(
        "--profile",
        choices=tuple(PROFILES),
        default="quick",
        help="parameter profile (paper = 100 runs at the paper's densities)",
    )
    parser.add_argument("--runs", type=int, default=None, help="override the number of runs per density")
    parser.add_argument("--pairs", type=int, default=None, help="override source/destination pairs per run")
    parser.add_argument("--seed", type=int, default=None, help="override the root random seed")
    parser.add_argument(
        "--densities",
        type=parse_densities,
        default=None,
        help="override the swept densities (comma-separated, e.g. 10,15,20)",
    )
    parser.add_argument(
        "--node-sample",
        type=parse_node_sample,
        default=NODE_SAMPLE_UNSET,
        help="override nodes sampled per topology in the set-size figures (0 or 'all' = every node)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes per sweep (0 = one per CPU; default: $REPRO_WORKERS or serial); "
        "results are identical to a serial run",
    )
    parser.add_argument("--output", default=None, help="write the text report to this file")
    parser.add_argument("--json", dest="json_output", default=None, help="write results as JSON to this file")
    parser.add_argument("--quiet", action="store_true", help="do not print per-run progress")
    return parser


def _spec_for(args: argparse.Namespace, number: int) -> ExperimentSpec:
    overrides = {}
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.pairs is not None:
        overrides["pairs_per_run"] = args.pairs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.densities is not None:
        overrides["densities"] = args.densities
    if args.node_sample is not NODE_SAMPLE_UNSET:
        overrides["node_sample"] = args.node_sample
    return figure_spec(number, args.profile).with_overrides(**overrides)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    progress: List[ResultSink] = []
    if not args.quiet:
        progress.append(ProgressSink(lambda message: print(message, file=sys.stderr)))

    header = f"profile={args.profile}"
    sinks: List[ResultSink] = []
    if args.output:
        sinks.append(TextReportSink(args.output, header=header))
    if args.json_output:
        sinks.append(JsonSink(args.json_output))

    figure_numbers = sorted(FIGURE_PRESETS) if args.all else [args.figure]
    results: Dict[int, ExperimentResult] = {}
    try:
        for number in figure_numbers:
            spec = _spec_for(args, number)
            results[number] = run_experiment(spec, sinks=progress, workers=args.workers)
            for sink in sinks:
                sink.on_result(results[number])
    except KeyboardInterrupt:
        # Buffered report sinks stay unwritten on purpose (never clobber good outputs
        # with a partial report); resumable runs are repro-sweep --jsonl territory.
        print(
            "interrupted -- no output files were written (repro-figures does not "
            "checkpoint; use repro-sweep --jsonl/--resume for resumable sweeps)",
            file=sys.stderr,
        )
        return 130
    # The report sinks buffer and write at close; closing only after every figure
    # succeeded means a failed run never clobbers existing output files with a partial
    # report (the pre-sink CLI had the same all-or-nothing behavior).
    for sink in sinks:
        sink.close()

    print(render_report(results, header=header))
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution guard
    raise SystemExit(main())
