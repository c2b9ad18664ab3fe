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

Every run is a fresh subprocess that times only the simulation (imports
excluded) in process CPU time, so time the process spends descheduled
on a shared host does not count.  The variants run interleaved in
rounds, one run of each per round, with the order reversed on every
other round, so drift of the host's speed during the measurement
reaches both sides of a ratio alike.  Each gate takes the median of its
per-round overheads and a paired bootstrap confidence interval of that
median (whole rounds are resampled, so each ratio keeps its two
timings).  A gate passes only when the interval's upper end is under
its threshold, fails only when the lower end is over it, and is
unresolved otherwise: a spread wider than the threshold cannot tell 5%
from 15%, and says so instead of flipping.  Exit status is 1 when a gate
fails, 2 when none fails but one is unresolved, and 0 when all pass; CI
runs it non-blocking and posts the numbers in the job summary.

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
like any other export.  That includes the session's queue gauges: a
station integrates its population only when a session asks for it, so
the disabled run skips those monitor updates and the traced run pays
for them, a few percent of the loop that the enabled ratio shows.
The ratio also rises whenever the untraced loop gets cheaper, because
the same emit cost is then a larger share of it: a higher enabled
ratio need not mean a slower traced run.

Usage::

    python benchmarks/telemetry_overhead.py                  # enabled gate only
    git worktree add /tmp/base HEAD^
    python benchmarks/telemetry_overhead.py --baseline /tmp/base/src
"""

from __future__ import annotations

import argparse
import os
import pathlib
import random
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

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
started = time.process_time()
system = DistributedDatabase(config, make_policy("LERT"), seed=11)
system.run(warmup={warmup}, duration={duration})
print(time.process_time() - started)
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
started = time.process_time()
system = DistributedDatabase(config, make_policy("LERT"), seed=11)
session = TelemetrySession(
    system, TelemetryConfig(events=False, spans=True, decisions=True)
)
system.run(warmup={warmup}, duration={duration})
session.close()
print(time.process_time() - started)
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


def interleaved(
    variants: Dict[str, Tuple[pathlib.Path, str]], rounds: int
) -> Dict[str, List[float]]:
    """Time each variant once per round, reversing the order every round.

    Returns each variant's times in round order, so ``times[a][i]`` and
    ``times[b][i]`` were measured side by side.
    """
    names = list(variants)
    times: Dict[str, List[float]] = {name: [] for name in names}
    for index in range(rounds):
        for name in names if index % 2 == 0 else reversed(names):
            times[name].append(time_once(*variants[name]))
    return times


def overhead_pcts(measured: List[float], reference: List[float]) -> List[float]:
    """Per-round overhead of *measured* over *reference*, in percent."""
    return [100.0 * (m - r) / r for m, r in zip(measured, reference)]


#: Bootstrap resamples per interval, and the interval's coverage.
RESAMPLES = 4000
LEVEL = 0.95


def bootstrap_ci(pcts: List[float], seed: int = 0) -> Tuple[float, float]:
    """Paired bootstrap interval of the median per-round overhead.

    Each resample draws whole rounds with replacement, so both timings
    of a round stay together; the seed makes the interval a function of
    the measurements alone.
    """
    rng = random.Random(seed)
    count = len(pcts)
    medians = sorted(
        statistics.median(rng.choices(pcts, k=count)) for _ in range(RESAMPLES)
    )
    tail = int(RESAMPLES * (1.0 - LEVEL) / 2.0)
    return medians[tail], medians[RESAMPLES - 1 - tail]


def gate(pcts: List[float], threshold: float) -> Tuple[str, str]:
    """The verdict on *pcts* against *threshold*, and its report."""
    median = statistics.median(pcts)
    low, high = bootstrap_ci(pcts)
    if high < threshold:
        verdict = "OK"
    elif low > threshold:
        verdict = "FAIL"
    else:
        verdict = "UNRESOLVED"
    report = (
        f"{median:+.1f}% [{LEVEL:.0%} CI {low:+.1f}%, {high:+.1f}%; "
        f"threshold {threshold:.1f}%] [{verdict}]"
    )
    return verdict, report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        metavar="SRC_DIR",
        default=None,
        help="src/ directory of a baseline checkout to compare against",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=11,
        help="interleaved rounds, one run of each variant per round (default 11)",
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

    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    current_src = REPO_ROOT / "src"
    variants = {
        "disabled": (
            current_src,
            WORKLOAD.format(warmup=args.warmup, duration=args.duration),
        ),
        "enabled": (
            current_src,
            WORKLOAD_ENABLED.format(warmup=args.warmup, duration=args.duration),
        ),
    }
    if args.baseline is not None:
        variants["baseline"] = (
            pathlib.Path(args.baseline),
            WORKLOAD.format(warmup=args.warmup, duration=args.duration),
        )
    times = interleaved(variants, args.repeats)
    current = statistics.median(times["disabled"])
    enabled = statistics.median(times["enabled"])
    lines: List[str] = [
        f"{args.repeats} interleaved rounds; median CPU seconds, "
        f"median per-round overhead with its paired bootstrap interval",
        f"current tree (telemetry disabled): {current:.3f}s",
    ]

    enabled_verdict, enabled_report = gate(
        overhead_pcts(times["enabled"], times["disabled"]), args.threshold_enabled
    )
    lines.append(
        f"current tree (spans + decision audit): {enabled:.3f}s ({enabled_report})"
    )
    verdicts = [enabled_verdict]
    if args.baseline is not None:
        baseline = statistics.median(times["baseline"])
        verdict, report = gate(
            overhead_pcts(times["disabled"], times["baseline"]), args.threshold
        )
        verdicts.append(verdict)
        lines.append(f"baseline checkout:                      {baseline:.3f}s")
        lines.append(f"disabled-telemetry overhead:            {report}")
        summary_line = (
            f"**Disabled-telemetry overhead:** {report} (current {current:.3f}s "
            f"vs baseline {baseline:.3f}s, {args.repeats} interleaved rounds). "
            f"**Tracing (spans+audit) overhead:** {enabled_report}"
        )
    else:
        lines.append("no --baseline given: skipping the disabled-overhead gate")
        summary_line = (
            f"**Telemetry timings:** disabled {current:.3f}s, "
            f"spans+audit {enabled:.3f}s ({enabled_report}); no baseline compared"
        )

    print("\n".join(lines))
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(summary_line + "\n")
    if "FAIL" in verdicts:
        return 1
    return 2 if "UNRESOLVED" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
