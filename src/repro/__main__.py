"""Single-run CLI: ``python -m repro`` runs one scenario and exports it.

The experiment CLI (``repro-experiments``) regenerates whole tables;
this entry point runs *one* configured system once and writes whatever
observability artifacts were requested — the typed event stream, the
sampled timeline, the query-lifecycle trace (Chrome trace-event JSON,
loadable in Perfetto), and the allocation decision audit (JSONL)::

    python -m repro --policy BNQRD --seed 7 \\
        --trace-spans trace.json --decision-audit decisions.jsonl
    python -m repro --policy LERT --faults plan.json --events run.jsonl
    python -m repro --policy RANDOM --workload open.json \\
        --sample-interval 50 --timeline timeline.csv

All exports are byte-deterministic: the same invocation writes the same
bytes, and ``--jobs``-parallel experiment replays of the same seed
produce the same streams (see ``docs/telemetry.md``).

The run summary (one :class:`~repro.model.metrics.SystemResults` line)
goes to stdout; everything else goes to the files you name.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.codec import load
from repro.faults.errors import FaultError
from repro.faults.plan import FaultPlan
from repro.model.config import paper_defaults
from repro.policies.registry import make_policy
from repro.runner import RunSpec, run
from repro.telemetry.session import TelemetryConfig
from repro.workloads.errors import WorkloadError
from repro.workloads.spec import WorkloadSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Run the paper's distributed-database model once under a "
            "chosen allocation policy and export its telemetry."
        ),
    )
    parser.add_argument(
        "--policy", default="BNQRD", help="allocation policy name (default: BNQRD)"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--warmup", type=float, default=3000.0, help="warmup time discarded"
    )
    parser.add_argument(
        "--duration", type=float, default=15000.0, help="measurement window"
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="install a fault plan (written by repro.codec.save)",
    )
    parser.add_argument(
        "--workload",
        default=None,
        metavar="PLAN.json",
        help="drive the run with a workload spec (written by repro.codec.save)",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="OUT.jsonl",
        help="write the typed event stream as JSONL",
    )
    parser.add_argument(
        "--timeline",
        default=None,
        metavar="OUT.csv",
        help="write the sampled timeline (requires --sample-interval > 0)",
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=0.0,
        metavar="DT",
        help="timeline sampling cadence in simulated time (0 disables)",
    )
    parser.add_argument(
        "--trace-spans",
        default=None,
        metavar="OUT.json",
        help=(
            "write the query-lifecycle trace as Chrome trace-event JSON "
            "(open it at https://ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--decision-audit",
        default=None,
        metavar="OUT.jsonl",
        help=(
            "write one JSONL record per allocation decision (staleness, "
            "seen vs true loads, ex-post regret)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.timeline is not None and args.sample_interval <= 0:
        parser.error("--timeline requires --sample-interval > 0")

    wants_telemetry = (
        args.events is not None
        or args.sample_interval > 0
        or args.trace_spans is not None
        or args.decision_audit is not None
    )
    telemetry = (
        TelemetryConfig(
            events=args.events is not None,
            sample_interval=args.sample_interval,
            spans=args.trace_spans is not None,
            decisions=args.decision_audit is not None,
        )
        if wants_telemetry
        else None
    )
    # Bad user input (unknown policy, invalid run window, unreadable or
    # malformed plan file) is a usage error, not a traceback.
    try:
        spec = RunSpec(
            warmup=args.warmup,
            duration=args.duration,
            seed=args.seed,
            telemetry=telemetry,
            faults=None if args.faults is None else load(FaultPlan, args.faults),
            workload=(
                None if args.workload is None else load(WorkloadSpec, args.workload)
            ),
        )
        policy = make_policy(args.policy)
    except KeyError as exc:
        parser.error(exc.args[0])
    except (ValueError, OSError, FaultError, WorkloadError) as exc:
        parser.error(str(exc))
    report = run(paper_defaults(), policy, spec)

    if args.events is not None:
        report.write_events(args.events)
    if args.timeline is not None:
        report.write_timeline(args.timeline)
    if args.trace_spans is not None:
        report.write_spans(args.trace_spans)
    if args.decision_audit is not None:
        report.write_decisions(args.decision_audit)

    print(report.results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
