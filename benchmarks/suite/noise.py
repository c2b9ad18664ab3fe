"""Measure the suite's run-to-run spread at one commit.

Runs ``run.py`` once per (seed, workload), each time with another seed,
workloads interleaved, at the run length ``run_seconds`` of
``BENCHMARK.json`` (the bounds hold for runs of that length only).  It
reports per (workload, end-to-end metric) the median and the quartile
spread ``(Q3 - Q1) / median`` of the runs, next to the metric's bound.  A
spread above half the bound is flagged: each bound must be at least twice
its own noise.

    python3 benchmarks/suite/noise.py --runs 10 \\
        --save benchmarks/suite/baseline/noise.json

``--save`` keeps the raw result line of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spread(values: List[float]) -> float:
    """Quartile spread of *values* as a share of their median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(
    workload: str, seed: int, src: Path = ROOT / "src", out: Path = HERE / "out"
) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """The result line and the cell digests of one untraced ``run.py`` run
    on the sources *src*, writing to *out* (failed checks included; a run
    without a result line stops the script)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--src", str(src), "--out", str(out),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"])],
        stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT,
    )
    if done.returncode not in (0, 1):
        raise SystemExit(f"{workload} seed {seed} on {src}: run.py exited {done.returncode}")
    record = json.loads((out / f"{workload}.json").read_text(encoding="utf-8"))
    return json.loads(done.stdout.strip().splitlines()[-1]), record["digests"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--save", type=Path, help="write the raw runs here")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]

    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(args.runs):
        seed = args.first_seed + index
        for name in names:
            result, _ = run_once(name, seed)
            runs[name].append(dict(result, seed=seed))
            print(f"{name} seed {seed}: failed {result['failed']}", file=sys.stderr)
    if args.save is not None:
        args.save.write_text(json.dumps(
            {"seconds": BENCHMARK["run_seconds"], "runs": runs}, indent=1) + "\n",
            encoding="utf-8")

    flagged = 0
    print(f"{'workload':<15} {'metric':<15} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        for metric in BENCHMARK["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            share = spread(values)
            loose = share > metric["bound"] / 2
            flagged += loose
            print(f"{name:<15} {metric['name']:<15} {statistics.median(values):>12.6g} "
                  f"{share:>8.2%} {metric['bound']:>6.0%}{'  TOO NOISY' if loose else ''}")
    failed = sum(r["failed"] for runs_ in runs.values() for r in runs_)
    if failed:
        print(f"{failed} failed operations: see the raw runs", file=sys.stderr)
    return 1 if flagged or failed else 0


if __name__ == "__main__":
    sys.exit(main())
