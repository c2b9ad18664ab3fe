"""Measure the disabled-telemetry overhead of the event-bus instrumentation.

The telemetry subsystem promises to be *zero-cost when disabled*: with no
subscribers, every instrumented emission site costs one ``bus.active``
attribute test and never constructs an event.  This script quantifies
that promise by timing a fixed simulation workload:

* **current tree** with telemetry disabled (the default — nothing
  subscribes), versus
* a **baseline checkout** (``--baseline <path-to-src>``, e.g. a git
  worktree of the pre-telemetry commit) running the identical workload
  through the same public API.

Each measurement is best-of-N in a fresh subprocess (imports excluded —
the child times only the simulation), so results are robust to warm
caches and CI jitter.  Exit status is 1 when the overhead exceeds the
threshold (default 3%), making the check scriptable; CI runs it
non-blocking and posts the number in the job summary.

Without ``--baseline`` the script still reports the absolute timing of
the current tree plus the *enabled*-tracing cost.  The enabled cost is
itself gated: a tracing session (query-lifecycle spans + allocation
decision audit) must keep the simulation loop within
``--threshold-enabled`` percent (default 10%) of the disabled run, so
new instrumentation can't quietly make observability expensive.  The
session only buffers events during the run and defers span pairing and
regret scoring until results are read, so the gate measures exactly
what tracing adds to the run itself;
the post-run assembly/export cost is proportional to the trace size,
like any other export.

Usage::

    python benchmarks/telemetry_overhead.py                  # enabled gate only
    git worktree add /tmp/base HEAD^
    python benchmarks/telemetry_overhead.py --baseline /tmp/base/src
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
from typing import List, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The timed workload: the paper's default system, shortened horizons.
#: Uses only the public API that exists both before and after the
#: telemetry subsystem (DistributedDatabase.run), so the identical
#: snippet runs against the baseline checkout.
WORKLOAD = """
import time
from repro.model.config import paper_defaults
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy

config = paper_defaults()
started = time.perf_counter()
system = DistributedDatabase(config, make_policy("LERT"), seed=11)
system.run(warmup={warmup}, duration={duration})
print(time.perf_counter() - started)
"""

#: Same workload with tracing attached (current tree only): the
#: query-lifecycle spans plus the allocation decision audit.
#: ``events=False`` keeps the event log out of the measurement —
#: the gate isolates what *tracing* adds to the simulation loop.
WORKLOAD_ENABLED = """
import time
from repro.model.config import paper_defaults
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.telemetry.session import TelemetryConfig, TelemetrySession

config = paper_defaults()
started = time.perf_counter()
system = DistributedDatabase(config, make_policy("LERT"), seed=11)
session = TelemetrySession(
    system, TelemetryConfig(events=False, spans=True, decisions=True)
)
system.run(warmup={warmup}, duration={duration})
session.close()
print(time.perf_counter() - started)
"""


def time_once(src_dir: pathlib.Path, snippet: str) -> float:
    """One subprocess run; returns the child-measured simulation seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)  # shadow any installed repro package
    completed = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env,
        capture_output=True,
        text=True,
        check=False,
        cwd=str(REPO_ROOT),
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"workload failed under {src_dir}:\n{completed.stderr.strip()}"
        )
    return float(completed.stdout.strip().splitlines()[-1])


def best_of(src_dir: pathlib.Path, snippet: str, repeats: int) -> float:
    """Minimum of *repeats* runs — the standard noise-robust estimator."""
    return min(time_once(src_dir, snippet) for _ in range(repeats))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        metavar="SRC_DIR",
        default=None,
        help="src/ directory of a baseline checkout to compare against",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="runs per measurement (default 5)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        help="maximum tolerated disabled-telemetry overhead in %% (default 3)",
    )
    parser.add_argument(
        "--threshold-enabled",
        type=float,
        default=10.0,
        help=(
            "maximum tolerated simulation-loop overhead in %% with spans "
            "+ decision audit enabled (default 10)"
        ),
    )
    parser.add_argument(
        "--warmup", type=float, default=500.0, help="simulated warmup time"
    )
    parser.add_argument(
        "--duration", type=float, default=4000.0, help="simulated measured time"
    )
    parser.add_argument(
        "--summary",
        metavar="FILE",
        default=None,
        help="append a Markdown summary line (e.g. $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    snippet = WORKLOAD.format(warmup=args.warmup, duration=args.duration)
    current_src = REPO_ROOT / "src"
    lines: List[str] = []

    current = best_of(current_src, snippet, args.repeats)
    lines.append(f"current tree (telemetry disabled): {current:.3f}s")

    enabled_snippet = WORKLOAD_ENABLED.format(
        warmup=args.warmup, duration=args.duration
    )
    enabled = best_of(current_src, enabled_snippet, args.repeats)
    enabled_pct = 100.0 * (enabled - current) / current
    enabled_verdict = "OK" if enabled_pct <= args.threshold_enabled else "FAIL"
    lines.append(
        f"current tree (spans + decision audit): {enabled:.3f}s "
        f"({enabled_pct:+.1f}%; threshold {args.threshold_enabled:.1f}%) "
        f"[{enabled_verdict}]"
    )

    failed = enabled_verdict == "FAIL"
    if args.baseline is not None:
        baseline_src = pathlib.Path(args.baseline)
        baseline = best_of(baseline_src, snippet, args.repeats)
        overhead_pct = 100.0 * (current - baseline) / baseline
        verdict = "OK" if overhead_pct <= args.threshold else "FAIL"
        failed = failed or verdict == "FAIL"
        lines.append(f"baseline checkout:                      {baseline:.3f}s")
        lines.append(
            f"disabled-telemetry overhead:            {overhead_pct:+.2f}% "
            f"(threshold {args.threshold:.1f}%) [{verdict}]"
        )
        summary_line = (
            f"**Disabled-telemetry overhead:** {overhead_pct:+.2f}% "
            f"(current {current:.3f}s vs baseline {baseline:.3f}s, "
            f"best of {args.repeats}; threshold {args.threshold:.1f}%) — {verdict}. "
            f"**Tracing (spans+audit) overhead:** {enabled_pct:+.1f}% "
            f"(threshold {args.threshold_enabled:.1f}%) — {enabled_verdict}"
        )
    else:
        lines.append("no --baseline given: skipping the disabled-overhead gate")
        summary_line = (
            f"**Telemetry timings:** disabled {current:.3f}s, "
            f"spans+audit {enabled:.3f}s ({enabled_pct:+.1f}%, "
            f"threshold {args.threshold_enabled:.1f}%) — {enabled_verdict}; "
            f"no baseline compared"
        )

    print("\n".join(lines))
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(summary_line + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
