"""Run one benchmark workload in this process; print its measurements as JSON.

``run.py`` starts this script in a fresh interpreter once per workload,
plus once per extra set-up sample (``--setup-only``), with the program's
sources on ``PYTHONPATH``.  Set-up runs from interpreter start through the
imports, building the inputs and one untimed warm-up cell; ``--started``
is the parent's ``time.monotonic()`` just before it started this process.

Untraced (the default), units are run round-robin until ``--seconds`` have
passed, and never less than one full pass.  After the first pass, the
calibration loop (see :func:`calibration_seconds`) runs between units.
``wall_s`` is the sum over units of each unit's fastest time, times the
run's reference scale, ``REFERENCE_LOOP_S`` over the fastest calibration
loop: one pass of the workload at the reference host's speed.  ``run.py``
rescales ``setup_s`` by the same scale.  The raw host seconds are kept in
the record as ``measured_*``.

With ``--trace``, untraced and traced passes alternate within the same
budget (at least one of each, and no pair that would overrun it) and the
per-layer metrics are the medians over traced passes.  A workload served by the result cache is replayed
warm after each traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional


#: Iterations of the calibration loop.
CALIBRATION_ITERATIONS = 250_000
#: Floats the calibration loop reads from (about 32 MB with their tuple).
CALIBRATION_FLOATS = 1 << 20
#: Seconds the fastest calibration loop takes on the reference host, a
#: 2-core Xeon (Sapphire Rapids) KVM guest running CPython 3.11.
REFERENCE_LOOP_S = 0.12
#: Calibration loops a run makes at least.
MIN_CALIBRATIONS = 5


def calibration_data() -> tuple:
    """The floats :func:`calibration_seconds` reads.  The tuple holds no
    containers, so the garbage collector stops tracking it on its first
    pass and the program's collections never traverse it."""
    return tuple(float(i) for i in range(CALIBRATION_FLOATS))


def calibration_seconds(data: tuple) -> float:
    """Seconds one fixed pure-Python loop over *data* takes on this host
    right now.

    The loop never touches the program, so a change to the program cannot
    move it; it moves only with the host.  On shared hosts the speed of
    the same code drifts by tens of percent over minutes, and the ratio of
    a run's time to this loop's follows the program instead.  The loop
    reads floats at pseudo-random places across ``data``, so like the
    program it waits on memory as well as on the interpreter: contention
    from other guests slows such code more than code that stays in the
    cache.  Over ten 20-second runs per workload on a busy host, a
    cache-resident loop left calibrated spreads of 8-16% where this one
    left 4-16%.  The loop allocates one container, so it cannot make
    the program's heap trigger garbage collection.
    """
    start = time.perf_counter()
    mask, index, value, table = len(data) - 1, 1, 0.0, {}
    for i in range(CALIBRATION_ITERATIONS):
        index = (index * 1103515245 + 12345) & mask
        value = (value + data[index]) % 1_000_003.0
        table[i & 1023] = value
    return time.perf_counter() - start


def _seconds_since(start: float) -> float:
    return time.perf_counter() - start


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


class Session:
    """Runs units, checks every outcome, and remembers what it saw."""

    def __init__(self, workloads, workload, pins, root: Path) -> None:
        self.workloads = workloads
        self.workload = workload
        self.pins = pins
        self.root = root
        self.digests: Dict[str, str] = {}
        self.problems: Dict[str, List[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.completions: Dict[str, int] = {}
        self.rows: Dict[float, Any] = {}

    def workdir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.root))

    def execute(self, unit, workdir: Path, tracer=None, boundary="bench.unit"):
        """Run *unit* in *workdir* and check it; returns (outcome, seconds)."""
        if tracer is None:
            start = time.perf_counter()
            outcome = unit.run(workdir)
            seconds = _seconds_since(start)
        else:
            outcome, seconds = tracer.call(boundary, unit.run, workdir)
        failures = self.workloads.check_outcome(outcome, self.pins)
        for cell in outcome.cells:
            first = self.digests.setdefault(cell.name, cell.digest)
            if cell.digest != first:
                failures.setdefault(cell.name, []).append(
                    "results differ from an earlier run of the same cell"
                )
        self.attempted += len(outcome.cells) + len(outcome.exports)
        self.failed += len(failures)
        for name, problems in failures.items():
            known = self.problems.setdefault(name, [])
            known.extend(p for p in problems if p not in known)
        self.completions[unit.name] = sum(
            cell.results.completions for cell in outcome.cells
        )
        for row in outcome.rows:
            self.rows[row.think_time] = row
        return outcome, seconds

    def run_once(self, unit) -> float:
        workdir = self.workdir()
        try:
            return self.execute(unit, workdir)[1]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Untraced: end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(session: Session, seconds: Optional[float]) -> Dict[str, Any]:
    units = session.workload.units
    samples: Dict[str, List[float]] = {unit.name: [] for unit in units}
    start = time.perf_counter()
    for unit in units:
        samples[unit.name].append(session.run_once(unit))
    # Read after exactly one pass: later passes raise the peak through
    # allocator fragmentation (by about 10 MB on mechanisms over two
    # passes), which would tie memory to host speed.  The calibration
    # data does not exist yet, so the peak is the program's alone.
    peak_rss = _peak_rss_mb()
    data = calibration_data()
    calibrations = [calibration_seconds(data) for _ in range(MIN_CALIBRATIONS)]
    index = 0
    while seconds is not None and _seconds_since(start) < seconds:
        unit = units[index % len(units)]
        samples[unit.name].append(session.run_once(unit))
        calibrations.append(calibration_seconds(data))
        index += 1
    # Contention only ever slows code down, so the fastest of several runs
    # is the closest to the host's uncontended speed, for each unit and for
    # the calibration loop alike.
    measured = sum(map(min, samples.values()))
    # Host seconds times this are reference-host seconds.
    scale = REFERENCE_LOOP_S / min(calibrations)
    wall = measured * scale
    queries = sum(session.completions.values())
    return {
        "metrics": {
            "wall_s": (wall, "s"),
            "queries_per_s": (queries / wall, "1/s"),
            "peak_rss_mb": (peak_rss, "MB"),
        },
        "measured_wall_s": measured,
        "reference_scale": scale,
        "samples": samples,
    }


# ----------------------------------------------------------------------
# Traced: per-layer metrics
# ----------------------------------------------------------------------
def _traced_pass(session: Session, tracer_module, epoch: float) -> Dict[str, Any]:
    """One traced pass, then (for cached workloads) its warm replay."""
    cells, exports, dirs = [], [], []
    pass_tracer = tracer_module.Tracer(epoch)
    replay_tracer = tracer_module.Tracer(epoch)
    try:
        with pass_tracer:
            for unit in session.workload.units:
                dirs.append(session.workdir())
                outcome, _ = session.execute(unit, dirs[-1], pass_tracer)
                cells.extend(outcome.cells)
                exports.extend(
                    (export.name, export.records, export.path.stat().st_size)
                    for export in outcome.exports
                )
        if session.workload.cached:
            with replay_tracer:
                for unit, workdir in zip(session.workload.units, dirs):
                    session.execute(unit, workdir, replay_tracer, "bench.replay")
            resimulated = replay_tracer.calls["sim.run"]
            if resimulated:
                session.failed += 1
                session.problems.setdefault("warm_replay", []).append(
                    f"warm replay re-simulated {resimulated} cells"
                )
    finally:
        for workdir in dirs:
            shutil.rmtree(workdir, ignore_errors=True)
    return {
        "tracer": pass_tracer,
        "replay": replay_tracer,
        "cells": cells,
        "exports": exports,
        "wall": pass_tracer.total["bench.unit"],
    }


def _untraced_pass(session: Session) -> float:
    return sum(session.run_once(unit) for unit in session.workload.units)


def layer_metrics(
    tracer_module, traced: Dict[str, Any], untraced_wall: float
) -> Dict[str, tuple]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    tracer = traced["tracer"]
    replay = traced["replay"]
    total, calls, profile = tracer.total, tracer.calls, tracer.profile
    results = [cell.results for cell in traced["cells"]]
    completions = sum(r.completions for r in results)
    opened = [r.workload for r in results if r.workload is not None]
    offered = sum(w.offered for w in opened)
    faulted = [r.availability for r in results if r.availability is not None]
    aborted = sum(a.queries_aborted for a in faulted)
    records = {}
    for name, count, _ in traced["exports"]:
        records[name] = records.get(name, 0) + count
    cell_seconds = [
        seconds
        for boundary, _, seconds, _ in tracer.spans
        if boundary in ("experiments.cell", "telemetry.run")
    ]
    in_cells = total["experiments.cell"] + total["telemetry.run"]
    self_seconds = tracer_module.layer_self_seconds(tracer)
    return {
        "sim.events": (profile["events"], "count"),
        "sim.us_per_event": (_ratio(untraced_wall, profile["events"]) * 1e6, "us"),
        "sim.queue_ops": (profile["queue_ops"], "count"),
        "sim.queue_s": (profile["queue_s"], "s"),
        "sim.dispatch_s": (self_seconds.get("sim.dispatch", 0.0), "s"),
        "policies.select_calls": (profile["select_calls"], "count"),
        "policies.select_s": (profile["select_s"], "s"),
        "policies.select_us": (
            _ratio(profile["select_s"], profile["select_calls"]) * 1e6, "us"),
        "policies.remote_frac": (
            _ratio(sum(r.remote_fraction * r.completions for r in results),
                   completions), "frac"),
        "model.loadboard_s": (total["model.loadboard"], "s"),
        "model.ring_sends": (calls["model.ring_send"], "count"),
        "model.ring_send_s": (total["model.ring_send"], "s"),
        "model.view_s": (total["model.view"], "s"),
        "model.record_s": (total["model.record"], "s"),
        "model.cpu_util": (statistics.fmean(r.cpu_utilization for r in results), "frac"),
        "model.disk_util": (statistics.fmean(r.disk_utilization for r in results), "frac"),
        "model.subnet_util": (
            statistics.fmean(r.subnet_utilization for r in results), "frac"),
        "model.completions": (completions, "count"),
        "workloads.offered": (offered, "count"),
        "workloads.shed_frac": (_ratio(sum(w.shed for w in opened), offered), "frac"),
        "workloads.submit_calls": (calls["workloads.submit"], "count"),
        "workloads.submit_s": (total["workloads.submit"], "s"),
        "faults.aborted": (aborted, "count"),
        "faults.retried": (sum(a.queries_retried for a in faulted), "count"),
        "faults.lost": (sum(a.queries_lost for a in faulted), "count"),
        "faults.msgs_dropped": (sum(a.messages_dropped for a in faulted), "count"),
        "faults.useful_frac": (_ratio(completions, completions + aborted), "frac"),
        "telemetry.emit_calls": (profile["emit_calls"], "count"),
        "telemetry.emit_s": (profile["emit_s"], "s"),
        "telemetry.assemble_s": (tracer.self_time["telemetry.run"], "s"),
        "telemetry.export_s": (total["telemetry.export"], "s"),
        "telemetry.export_mb": (sum(size for _, _, size in traced["exports"]) / 1e6, "MB"),
        "telemetry.spans": (records.get("spans", 0), "count"),
        "telemetry.decisions": (records.get("decisions", 0), "count"),
        "experiments.cells": (len(results), "count"),
        "experiments.cell_s_p50": (statistics.median(cell_seconds), "s"),
        "experiments.harness_s": (
            traced["wall"] - in_cells - total["telemetry.export"], "s"),
        "experiments.cache_put_us": (
            _ratio(total["experiments.cache_put"], calls["experiments.cache_put"]) * 1e6,
            "us"),
        "experiments.cache_get_us": (
            _ratio(replay.total["experiments.cache_get"],
                   replay.calls["experiments.cache_get"]) * 1e6, "us"),
        "experiments.warm_replay_s": (replay.total["bench.replay"], "s"),
        "trace.overhead_frac": (_ratio(traced["wall"], untraced_wall) - 1.0, "frac"),
    }


def per_layer(session: Session, seconds: Optional[float]) -> Dict[str, Any]:
    import tracer as tracer_module  # imported after set-up: it is not set-up

    epoch = time.perf_counter()
    untraced: List[float] = []
    passes: List[Dict[str, Any]] = []
    pair_seconds = 0.0
    # A further pair starts only if one as long as the last still fits:
    # a pair can take half the budget, and overrunning it would double it.
    while not passes or (
        seconds is not None and _seconds_since(epoch) + pair_seconds <= seconds
    ):
        started = time.perf_counter()
        untraced.append(_untraced_pass(session))
        passes.append(_traced_pass(session, tracer_module, epoch))
        pair_seconds = _seconds_since(started)
    untraced_wall = statistics.median(untraced)
    per_pass = [layer_metrics(tracer_module, p, untraced_wall) for p in passes]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    events: List[Dict[str, Any]] = []
    for traced in passes:
        events.extend(tracer_module.chrome_events(traced["tracer"]))
        if session.workload.cached:
            events.extend(tracer_module.chrome_events(traced["replay"]))
    return {"metrics": metrics, "trace_events": events}


# ----------------------------------------------------------------------
def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pins", type=Path, help="expected.json; omit to skip pins")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    entered = time.monotonic()
    import workloads  # the program's imports are part of set-up

    imported = time.monotonic()
    workload = workloads.build(args.workload, args.seed, args.scale)
    pins = None
    if args.pins is not None:
        expected = json.loads(args.pins.read_text(encoding="utf-8"))
        if expected["seed"] == args.seed:
            pins = expected[args.scale][args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    session = Session(workloads, workload, pins, args.workdir)
    built = time.monotonic()
    warm_dir = session.workdir()
    try:
        workload.warmup.run(warm_dir)
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    # Start the timed phase from a collected heap.  Otherwise when cyclic
    # collection falls inside the first pass depends on the seed, and
    # traced_export's peak RSS flips between 153 and 167 MB with it.
    gc.collect()
    ready = time.monotonic()
    record: Dict[str, Any] = {
        "setup": {
            "measured_setup_s": ready - args.started,
            "setup.import_s": imported - entered,
            "setup.build_s": built - imported,
            "setup.warmup_s": ready - built,
        }
    }
    if not args.setup_only:
        measure = per_layer if args.trace else end_to_end
        record.update(measure(session, args.seconds))
        record["metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in record["metrics"].items()
        }
        if session.rows:
            record["paper_mae_pts"] = workloads.paper_mae_pts(
                [session.rows[t] for t in sorted(session.rows)]
            )
        record.update(
            attempted=session.attempted,
            failed=session.failed,
            problems=session.problems,
            digests=session.digests,
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
