"""The benchmark suite: every workload in its own fresh process, every metric
printed by name with its unit, outputs checked for correctness.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py                       # all workloads, one pass each
    python3 benchmarks/suite/run.py --workload paper_sweep --seed 3 --seconds 20
    python3 benchmarks/suite/run.py --trace 1             # per-layer metrics
    python3 benchmarks/suite/run.py --write-pins          # re-record expected.json

Workloads and metrics are declared in ``BENCHMARK.json`` at the repository
root; see ``benchmarks/suite/README.md``.  This script imports nothing from
the program: each workload runs in ``worker.py`` with ``--src`` (default:
the repository's ``src``) on ``PYTHONPATH``, preceded, when it measures
for ``--seconds``, by extra set-up-only processes so that ``setup_s`` is
a median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With one
``--workload``, ``metrics`` maps each metric name to ``{"value", "unit"}``;
with several it maps each workload name to such a mapping.  Exit status is
0 when every check passed, 1 when a check failed, and 2 (with no result
line) when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 1
#: Set-up is sampled this many times per workload (the measured run
#: included) when the run measures for ``--seconds``.
SETUP_SAMPLES = 5
#: Seconds a set-up-only process may take before it is killed.
SETUP_TIMEOUT = 120.0


class BenchmarkError(Exception):
    """The benchmark could not produce a measurement."""


def _worker(command: List[str], src: Path, timeout: float) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    started = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--started", repr(started)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with status {done.returncode}")
    return json.loads(lines[-1])


def _command(name: str, seed: int, scale: str, out: Path) -> List[str]:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--scale", scale,
        "--workdir", str(out / "work" / name),
    ]


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up samples plus one measured run of workload *name*."""
    base = _command(name, args.seed, args.scale, args.out)
    # A one-pass look (no --seconds) samples set-up once, to stay quick.
    extra = SETUP_SAMPLES - 1 if args.seconds is not None else 0
    setups = [
        _worker(base + ["--setup-only"], args.src, SETUP_TIMEOUT)["setup"]
        for _ in range(extra)
    ]
    command = base + ["--pins", str(args.expected)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.trace:
        command.append("--trace")
    timeout = 170.0 if args.seconds is None else 120.0 + 2 * args.seconds
    record = _worker(command, args.src, timeout)
    setups.append(record["setup"])
    setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    if args.trace:
        for key, value in setup.items():
            if key.startswith("setup."):
                record["metrics"][key] = {"value": value, "unit": "s"}
    else:
        # The set-ups run just before the measured run, so its reference
        # scale rescales them too.
        setup_s = setup["measured_setup_s"] * record["reference_scale"]
        record["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    record["setup_samples"] = setups
    record["measured_setup_s"] = setup["measured_setup_s"]
    return record


def _report(name: str, record: Dict[str, Any]) -> None:
    print(f"== {name} ==")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    for measured in ("measured_wall_s", "measured_setup_s"):
        if measured in record:
            print(f"  {measured:<28} {record[measured]:>14.6g} s  (host seconds, not rescaled)")
    if "paper_mae_pts" in record:
        print(f"  {'paper_mae_pts':<28} {record['paper_mae_pts']:>14.6g} pts"
              "  (Table 8 improvement columns vs the paper)")
    failed, attempted = record["failed"], record["attempted"]
    print(f"  {'failed_frac':<28} {failed / attempted:>14.6g}"
          f"  ({failed} of {attempted} operations)")
    for item, problems in record["problems"].items():
        for problem in problems:
            print(f"  FAILED {item}: {problem}")


def _write_trace(records: Dict[str, Dict[str, Any]], path: Path) -> None:
    events: List[Dict[str, Any]] = []
    for pid, (name, record) in enumerate(records.items(), start=1):
        events.append({"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                       "args": {"name": name}})
        for event in record.pop("trace_events"):
            events.append(dict(event, pid=pid))
    path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")


def write_pins(args: argparse.Namespace, names: List[str]) -> int:
    """Record every cell digest at the default seed, at both scales."""
    pins: Dict[str, Any] = {"seed": DEFAULT_SEED}
    for scale in ("full", "tiny"):
        pins[scale] = {}
        for name in names:
            command = _command(name, DEFAULT_SEED, scale, args.out)
            record = _worker(command, args.src, 170.0)
            if record["failed"]:
                print(f"{name} ({scale}) fails its checks: {record['problems']}",
                      file=sys.stderr)
                return 1
            pins[scale][name] = record["digests"]
    args.expected.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {args.expected}")
    return 0


def _parse(argv: Optional[List[str]], names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long (default: one pass)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: report per-layer metrics instead")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where result JSON and bench_trace.json go")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the program's sources (put on PYTHONPATH)")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="digest pins checked at the default seed")
    parser.add_argument("--write-pins", action="store_true",
                        help="record --expected from the current sources")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    args = _parse(argv, names)
    if not (args.src / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources at {args.src}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_pins:
            return write_pins(args, names)
        records = {name: run_workload(name, args) for name in args.workload or names}
    except BenchmarkError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.out / "work", ignore_errors=True)

    suffix = ".trace" if args.trace else ""
    if args.trace:
        _write_trace(records, args.out / "bench_trace.json")
    for name, record in records.items():
        _report(name, record)
        (args.out / f"{name}{suffix}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    metrics = {name: r["metrics"] for name, r in records.items()}
    if len(records) == 1:
        (metrics,) = metrics.values()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
