"""Command-line entry point: regenerate tables, run studies.

Installed as ``repro-experiments``.  Every subcommand except ``study``,
``report``, ``all``, and ``list`` is generated from the experiment
registry (:mod:`repro.experiments.registry`) — registering an experiment
there is all it takes to get a subcommand::

    repro-experiments list                       # what's available
    repro-experiments table5
    repro-experiments table8 --scale quick
    repro-experiments all --scale standard
    repro-experiments table9 --jobs 4            # fan cells over 4 processes
    repro-experiments table9 --no-cache          # force re-simulation
    repro-experiments all --cache-dir /tmp/rc    # shared result cache
    repro-experiments table8 --progress          # live progress on stderr
    repro-experiments study studies/core.json    # run a committed study
    repro-experiments report --out report.md

Simulation experiments accept ``--jobs`` (process-pool fan-out over all
cores by default, ``--jobs 1`` for serial; results are bit-identical to
serial runs) and use the content-addressed result
cache by default (``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``; see
``docs/parallel_and_caching.md``).  ``study`` runs a
:class:`~repro.ablation.spec.StudySpec` JSON file (see
``docs/ablation.md``); its run settings come from the spec itself, so
``--scale`` does not apply.  Table/report text goes to stdout;
per-experiment wall-clock timings and cache statistics go to stderr so
piped output stays clean.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
import time
from typing import Iterator, List, Optional

from repro.experiments.context import StudyContext
from repro.experiments.registry import (
    Experiment,
    all_experiments,
    get_experiment,
)
from repro.experiments.runconfig import settings_for
from repro.faults.errors import FaultError
from repro.workloads.errors import WorkloadError

#: What reading a bad ``--faults``/``--workload``/study file raises: an
#: unreadable file, a record that does not decode, or a value the spec's
#: own validation rejects.
SPEC_ERRORS = (ValueError, OSError, FaultError, WorkloadError)


def _execution_flags(parser: argparse.ArgumentParser) -> None:
    """The execution options shared by every simulating subcommand."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help=(
            "worker processes for simulation cells (default: 0 = all cores; "
            "1 = serial); results are identical to serial runs"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "result-cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro/results)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (always re-simulate)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "show live per-replication progress on stderr while simulation "
            "batches run (display only; results are unaffected)"
        ),
    )


def _settings_flags(parser: argparse.ArgumentParser) -> None:
    """The run-settings options of the table/report subcommands."""
    parser.add_argument(
        "--scale",
        default="standard",
        choices=["quick", "standard", "paper"],
        help="run length preset for simulation experiments (default: standard)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help=(
            "install a fault plan (written by repro.codec.save) into "
            "every simulated run; update queries cannot run under faults, "
            "so the update-fraction ablation rejects this flag"
        ),
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="PLAN.json",
        help=(
            "drive every simulated run with a workload spec (written by "
            "repro.codec.save) instead of the paper's closed "
            "terminals"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables of Carey, Livny & Lu, 'Dynamic Task "
            "Allocation in a Distributed Database System' (ICDCS 1985), "
            "and run declarative ablation studies."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # One subcommand per registered experiment — the registry is the
    # single source of truth for what can run.
    for experiment in all_experiments():
        sub = subparsers.add_parser(
            experiment.name,
            help=experiment.description,
            description=f"{experiment.title}: {experiment.description}",
        )
        _settings_flags(sub)
        _execution_flags(sub)

    sub = subparsers.add_parser(
        "all", help="run every registered experiment in report order"
    )
    _settings_flags(sub)
    _execution_flags(sub)

    sub = subparsers.add_parser(
        "report",
        help="write a single Markdown report covering every experiment",
    )
    sub.add_argument(
        "--out",
        default="report.md",
        help="output path for the report (default: report.md)",
    )
    _settings_flags(sub)
    _execution_flags(sub)

    sub = subparsers.add_parser(
        "study",
        help="run a StudySpec JSON file (see docs/ablation.md)",
        description=(
            "Expand a committed study spec into its content-addressed "
            "run grid, execute it, and print the ranked component-"
            "importance report.  Run settings come from the spec."
        ),
    )
    sub.add_argument("spec", help="path to a StudySpec JSON file")
    sub.add_argument(
        "--markdown",
        action="store_true",
        help="render the report tables as GitHub-flavored Markdown",
    )
    _execution_flags(sub)

    subparsers.add_parser(
        "list", help="list the registered experiments and built-in studies"
    )
    return parser


def _build_cache(args):
    """The ResultCache implied by --cache-dir/--no-cache (None = disabled)."""
    if args.no_cache:
        return None
    from repro.experiments.cache import ResultCache, default_cache_dir

    root = pathlib.Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    return ResultCache(root)


@contextlib.contextmanager
def _progress_scope(args, cache) -> Iterator[StudyContext]:
    """The study context of one command: ``--jobs``, *cache* and, with
    ``--progress``, a stderr progress printer as its ``progress``.

    Every ``run_tasks`` batch the experiment triggers reports to the
    printer through the context it is handed.  The line is redrawn in
    place (``\\r``); a final newline keeps subsequent stderr output clean.
    """
    if not args.progress:
        yield StudyContext(jobs=args.jobs, cache=cache)
        return
    from repro.experiments.parallel import RunProgress

    def report(tick: RunProgress) -> None:
        line = (
            f"[{tick.completed}/{tick.total}] "
            f"{tick.policy} seed={tick.seed} ({tick.cached} cached)"
        )
        # Pad so a shorter redraw fully overwrites the previous line.
        print(f"\r{line:<60}", end="", file=sys.stderr, flush=True)

    try:
        yield StudyContext(jobs=args.jobs, cache=cache, progress=report)
    finally:
        print(file=sys.stderr)


def _timing_line(name: str, elapsed: float, cache) -> str:
    line = f"[{name}] wall-clock {elapsed:.2f}s"
    if cache is not None:
        line += f" (cache: {cache.stats})"
    return line


def _settings_from_args(args):
    from repro.codec import load
    from repro.faults.plan import FaultPlan
    from repro.workloads.spec import WorkloadSpec

    settings = settings_for(args.scale)
    if args.faults is not None:
        settings = settings.with_faults(load(FaultPlan, args.faults))
    if args.workload is not None:
        settings = settings.with_workload(load(WorkloadSpec, args.workload))
    return settings


def _run_experiment(experiment: Experiment, settings, args, cache) -> None:
    """Run one experiment, print its table, report timing to stderr."""
    started = time.perf_counter()
    with _progress_scope(args, cache) as context:
        output = experiment.run(settings, context)
    elapsed = time.perf_counter() - started
    print(output)
    print(
        _timing_line(
            experiment.name, elapsed, None if experiment.analytic else cache
        ),
        file=sys.stderr,
    )


def _run_list() -> int:
    from repro.ablation import study_names
    from repro.experiments.report import TextTable

    table = TextTable(["name", "kind", "description"], title="Experiments")
    for experiment in all_experiments():
        table.add_row(
            experiment.name,
            "analytic" if experiment.analytic else "simulation",
            experiment.description,
        )
    print(table.render())
    print()
    print("Built-in studies (repro-experiments study studies/<name>.json):")
    for name in study_names():
        print(f"  {name}")
    return 0


def _run_study(spec, args) -> int:
    from repro.ablation import render_study_report, run_study

    cache = _build_cache(args)
    started = time.perf_counter()
    with _progress_scope(args, cache) as context:
        outcome = run_study(spec, context=context)
    elapsed = time.perf_counter() - started
    print(render_study_report(outcome, markdown=args.markdown))
    print(
        _timing_line(f"study:{spec.name}", elapsed, cache), file=sys.stderr
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _run_list()
    # A spec file that cannot be read or does not decode is a usage
    # error, not a traceback.
    try:
        if args.command == "study":
            from repro.ablation import StudySpec
            from repro.codec import load

            spec = load(StudySpec, args.spec)
        else:
            settings = _settings_from_args(args)
    except SPEC_ERRORS as exc:
        parser.error(str(exc))
    if args.command == "study":
        return _run_study(spec, args)
    if args.command == "report":
        from repro.experiments.report import write_report

        cache = _build_cache(args)
        started = time.perf_counter()
        with _progress_scope(args, cache) as context:
            write_report(args.out, settings, context=context)
        print(
            _timing_line("report", time.perf_counter() - started, cache),
            file=sys.stderr,
        )
        print(f"report written to {args.out}")
        return 0
    if args.command == "all":
        # Build the cache once; analytic experiments never touch it.
        cache = _build_cache(args)
        for experiment in all_experiments():
            _run_experiment(experiment, settings, args, cache)
            print()
        return 0
    experiment = get_experiment(args.command)
    cache = None if experiment.analytic else _build_cache(args)
    _run_experiment(experiment, settings, args, cache)
    return 0


if __name__ == "__main__":
    sys.exit(main())
