"""In-session A/B: the current suite against the program at REF and in the
working tree, in alternating pairs.

    python3 benchmarks/suite/ab.py REF [--pairs 10] [--workload NAME]... \\
        [--save ab.json]

REF's ``src/`` is exported with ``git archive`` into ``benchmarks/suite/out``
(removed afterwards); both sides run this working tree's suite code, each
through ``run.py --src``, which puts that side's sources on the worker's
``PYTHONPATH``.  Every run lasts ``run_seconds`` of ``BENCHMARK.json``, the
length the bounds were set for.  Pair *i* uses seed ``100 + i`` on both
sides, and the side that runs first alternates from pair to pair.

The two sides of a pair simulate the same inputs, so every cell digest
must agree between them: each that differs counts as a failed operation,
and its workload's verdicts become ``output differs``.  Otherwise, for
every (workload, end-to-end metric) the report gives each side's median
and quartiles, the share of pairs the working tree won (ties count for
neither), and a verdict:

* ``gain``: at least 10 pairs, the working tree won 9 in 10 of them, and the medians
  differ by more than the parent's quartile spread;
* ``unresolved``: the run-to-run spread of either side exceeds the metric's
  bound, unless every working-tree run beat every parent run;
* ``regression``: the working tree's median is worse by more than the bound;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import Any, Dict, List, Optional

import noise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Pair *i* runs both sides at seed ``FIRST_SEED + i``.
FIRST_SEED = 100


def export_ref(ref: str, dest: Path) -> str:
    """Write REF's ``src/`` under *dest*; returns REF's commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict[str, Any]:
    """Summary and verdict of one (workload, metric) from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, _, p3 = statistics.quantiles(parent, n=4)
    c1, _, c3 = statistics.quantiles(change, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = sign * (p_med - c_med) / p_med
    spread = max(noise.spread(parent), noise.spread(change))
    claimable = len(parent) >= 10 and wins >= 0.9 * len(parent)
    if claimable and abs(c_med - p_med) > p3 - p1 and worse_by < 0:
        outcome = "gain"
    elif spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regression"
    else:
        outcome = "within bound"
    return {
        "parent": [p1, p_med, p3], "change": [c1, c_med, c3],
        "wins": wins, "pairs": len(parent), "spread": spread,
        "change_vs_parent": c_med / p_med - 1.0, "verdict": outcome,
    }


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = noise.BENCHMARK
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the parent commit (any git revision)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--save", type=Path, help="write raw runs and verdicts here")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in benchmark["workloads"]]

    tree = HERE / "out" / "ab-parent"
    shutil.rmtree(tree, ignore_errors=True)
    commit = export_ref(args.ref, tree)
    sides = {"parent": tree / "src", "change": ROOT / "src"}
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        name: {"parent": [], "change": []} for name in names
    }
    # Per workload, the cells whose results differ between the sides.
    differs: Dict[str, List[str]] = {name: [] for name in names}
    try:
        for pair in range(args.pairs):
            seed = FIRST_SEED + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in names:
                digests = {}
                for side in order:
                    result, digests[side] = noise.run_once(
                        name, seed, sides[side], HERE / "out" / f"ab-{side}")
                    runs[name][side].append(result)
                parent, change = digests["parent"], digests["change"]
                differs[name].extend(
                    f"seed {seed} {cell}" for cell in sorted(parent.keys() | change.keys())
                    if parent.get(cell) != change.get(cell)
                )
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        shutil.rmtree(tree, ignore_errors=True)

    print(f"parent {commit[:12]} vs working tree, {args.pairs} pairs, "
          f"{benchmark['run_seconds']} s per run")
    print(f"{'workload':<15} {'metric':<14} {'parent median':>14} {'change median':>14} "
          f"{'change':>8} {'wins':>6} {'spread':>7} {'bound':>6}  verdict")
    verdicts: Dict[str, Dict[str, Any]] = {}
    for name in names:
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            values = {side: [r["metrics"][key]["value"] for r in runs[name][side]]
                      for side in sides}
            result = verdict(values["parent"], values["change"],
                             metric["better"], metric["bound"])
            if differs[name]:
                result["verdict"] = "output differs"
            verdicts.setdefault(name, {})[key] = result
            print(f"{name:<15} {key:<14} {result['parent'][1]:>14.6g} "
                  f"{result['change'][1]:>14.6g} {result['change_vs_parent']:>+8.2%} "
                  f"{result['wins']:>3}/{result['pairs']:<2} {result['spread']:>7.2%} "
                  f"{metric['bound']:>6.0%}  {result['verdict']}")
    if args.save is not None:
        args.save.write_text(json.dumps(
            {"parent": commit, "runs": runs, "differs": differs, "verdicts": verdicts},
            indent=1) + "\n", encoding="utf-8")
    for name, cells in differs.items():
        for cell in cells:
            print(f"FAILED {name} {cell}: results differ from the parent's")
    failed = sum(r["failed"] for sides_ in runs.values() for rs in sides_.values() for r in rs)
    failed += sum(map(len, differs.values()))
    if failed:
        print(f"{failed} failed operations: see the raw runs", file=sys.stderr)
    regressed = any(v["verdict"] == "regression" for w in verdicts.values() for v in w.values())
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
