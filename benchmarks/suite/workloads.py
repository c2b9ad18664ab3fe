"""The benchmark's four workloads, built from a seed, and their output checks.

A workload is a tuple of *units*, each one call into a public entry point
of the program (``table8.run_experiment``, ``parallel.run_tasks``,
``runner.run`` plus ``RunReport.write_*``).  A pass runs every unit once.
Each unit returns the simulated cells it produced and the files it
exported, and :func:`check_outcome` decides, outside the timed region,
whether they are right.

Host-level driving is always one serial client in one process (jobs=1).
The simulated workloads differ: ``paper_sweep``, ``mechanisms`` and
``traced_export`` are closed terminal networks (6 sites x 20 terminals),
``open_overload`` is an open MMPP arrival stream with admission control.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import runner
from repro.experiments import table8
from repro.experiments.cache import ResultCache, canonical_json
from repro.experiments.context import StudyContext
from repro.experiments.paper_data import TABLE8_THINK
from repro.experiments.parallel import ReplicationTask, run_tasks
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import (
    FaultPlan,
    LoadBoardOutage,
    MessageFaults,
    RandomOutages,
)
from repro.model.config import paper_defaults
from repro.model.metrics import SystemResults
from repro.model.serialization import results_to_dict
from repro.runner import RunSpec
from repro.telemetry import (
    TelemetryConfig,
    read_decisions_jsonl,
    read_events_jsonl,
    read_spans_chrome,
    read_timeline_csv,
)
from repro.workloads.arrivals import MMPP
from repro.workloads.spec import AdmissionControl, WorkloadSpec

#: Run-length multipliers.  ``tiny`` exists for the suite's self-test.
SCALES = {"full": 1.0, "tiny": 0.25}

#: A closed cell passes the interactive response-time law N = X(R+Z) when
#: its relative error is within LAW_SIGMAS / sqrt(completions).  Think
#: times are exponential, so over n completions the realized mean think
#: time strays from Z with relative standard error up to 1/sqrt(n): a flat
#: 5% fails correct cells at the 2000-unit window (n is about 500 at think
#: time 450).  Measured over 432 full-scale cells, err * sqrt(n) has
#: standard deviation 0.74 and stays within +-1.8.
LAW_SIGMAS = 4.0

#: Per-site capacity the open workload's MMPP rates are scaled by.
OPEN_CAPACITY = 0.11


@dataclass(frozen=True)
class Cell:
    """One simulated run and what its checks need to know about it."""

    name: str
    results: SystemResults
    #: Closed terminal count N (0 for an open workload).
    terminals: int = 0
    #: Mean think time Z of the closed terminals.
    think_time: float = 0.0

    @property
    def digest(self) -> str:
        payload = canonical_json(results_to_dict(self.results))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Export:
    """One exported file and how to re-read it."""

    name: str
    path: Path
    records: int
    reader: Callable[[Path], Sequence[object]]


@dataclass(frozen=True)
class Outcome:
    """What one unit produced."""

    cells: Tuple[Cell, ...]
    exports: Tuple[Export, ...] = ()
    rows: Tuple[table8.Table8Row, ...] = ()


@dataclass(frozen=True)
class Unit:
    """One timed call into the program; ``run`` gets a fresh empty directory."""

    name: str
    run: Callable[[Path], Outcome]


@dataclass(frozen=True)
class Workload:
    units: Tuple[Unit, ...]
    #: The untimed warm-up cell that ends set-up.
    warmup: Unit
    #: Whether running a unit again on the same directory replays it
    #: from a warm result cache (true only for ``paper_sweep``).
    cached: bool = False


def _closed_cell(name: str, config, results: SystemResults) -> Cell:
    return Cell(
        name=name,
        results=results,
        terminals=config.num_sites * config.site.mpl,
        think_time=config.site.think_time,
    )


def _cell_seeds(seed: int):
    """Independent seeds, one per unit, derived from the workload seed.

    Units sharing one seed share their random streams, which makes a
    pass's amount of work swing with the seed: under open MMPP bursts,
    shared seeds spread it by 11.5% across ten seeds, independent ones by
    3.5%.  (Policies within one Table 8 row still share their row's seed,
    as the paper's common-random-numbers comparison requires.)"""
    return map(RunSettings(base_seed=seed).seed_for, itertools.count())


# ----------------------------------------------------------------------
# paper_sweep: the Table 8 grid through table8.run_experiment
# ----------------------------------------------------------------------
def _table8_unit(settings: RunSettings, think_time: float) -> Unit:
    def run(workdir: Path) -> Outcome:
        context = StudyContext(cache=ResultCache(workdir))
        result = table8.run_experiment(settings, (think_time,), context=context)
        row = result.rows[0]
        config = paper_defaults(think_time=think_time)
        cells = tuple(
            _closed_cell(
                f"think{think_time:g}/{policy}",
                config,
                row.results[policy].per_replication[0],
            )
            for policy in table8.POLICIES
        )
        return Outcome(cells=cells, rows=(row,))

    return Unit(f"think{think_time:g}", run)


def _paper_sweep(seed: int, factor: float) -> Workload:
    units = tuple(
        _table8_unit(
            RunSettings(
                warmup=500.0 * factor, duration=2000.0 * factor, base_seed=row_seed
            ),
            think_time,
        )
        for think_time, row_seed in zip(table8.THINK_TIMES, _cell_seeds(seed))
    )
    warm = RunSettings(warmup=100.0, duration=400.0 * factor, base_seed=seed)
    return Workload(units, warmup=_table8_unit(warm, 350.0), cached=True)


def paper_mae_pts(rows: Sequence[table8.Table8Row]) -> float:
    """Mean absolute error, in percentage points, of Table 8's five
    improvement columns against the paper's published values."""
    errors = []
    for row in rows:
        paper = TABLE8_THINK[row.think_time][2:]
        ours = (
            row.vs_local("BNQ"),
            row.vs_local("BNQRD"),
            row.vs_local("LERT"),
            row.vs_bnq("BNQRD"),
            row.vs_bnq("LERT"),
        )
        errors.extend(abs(a - b) for a, b in zip(ours, paper))
    return statistics.fmean(errors)


# ----------------------------------------------------------------------
# open_overload and mechanisms: single cells through parallel.run_tasks
# ----------------------------------------------------------------------
def _task_unit(name: str, task: ReplicationTask) -> Unit:
    def run(workdir: Path) -> Outcome:
        (results,) = run_tasks([task], jobs=1)
        if task.workload is not None:
            return Outcome(cells=(Cell(name, results),))
        return Outcome(cells=(_closed_cell(name, task.config, results),))

    return Unit(name, run)


def _task_units(seed: int, factor: float, cells) -> Tuple[Unit, ...]:
    """One unit per ``(name, ReplicationTask keyword arguments)`` cell, on
    the paper's default system at warmup 500 / duration 6000."""
    return tuple(
        _task_unit(
            name,
            ReplicationTask(
                config=paper_defaults(),
                seed=cell_seed,
                warmup=500.0 * factor,
                duration=6000.0 * factor,
                **task,
            ),
        )
        for (name, task), cell_seed in zip(cells, _cell_seeds(seed))
    )


def _warmup_unit(factor: float, seed: int, **task: Any) -> Unit:
    return _task_unit(
        "warmup",
        ReplicationTask(
            config=paper_defaults(),
            policy="LERT",
            seed=seed,
            warmup=100.0,
            duration=600.0 * factor,
            **task,
        ),
    )


def _open_spec(burst: float) -> WorkloadSpec:
    return WorkloadSpec(
        arrivals=MMPP(
            rates=(0.2 * OPEN_CAPACITY, burst * OPEN_CAPACITY),
            mean_holding=(200.0, 200.0),
        ),
        admission=AdmissionControl(max_pending=32),
    )


def _open_overload(seed: int, factor: float) -> Workload:
    cells = [
        (f"burst{burst:g}/{policy}", {"policy": policy, "workload": _open_spec(burst)})
        for burst in (1.2, 1.8)
        for policy in ("LOCAL", "BNQRD", "LERT")
    ]
    return Workload(
        _task_units(seed, factor, cells),
        _warmup_unit(factor, seed, workload=_open_spec(1.8)),
    )


FAULTS = FaultPlan(
    random_outages=(RandomOutages(mtbf=2000.0, mttr=200.0),),
    messages=MessageFaults(loss_prob=0.05),
    loadboard_outages=(LoadBoardOutage(at=1500.0, duration=500.0),),
)

#: (cell label, system kind, system kwargs, fault plan, policies)
MECHANISMS = (
    ("faulted", "standard", (), FAULTS, ("LERT", "BNQRD")),
    ("stale", "stale", (("refresh_interval", 50.0),), None, ("LERT", "BNQRD")),
    ("updates", "updates", (("update_prob", 0.2),), None, ("LERT", "BNQRD")),
    (
        "heterogeneous",
        "heterogeneous",
        (("cpu_speed_factors", (2.0, 2.0, 1.0, 1.0, 0.5, 0.5)),),
        None,
        ("LERT", "LERT-HET"),
    ),
)


def _mechanisms(seed: int, factor: float) -> Workload:
    cells = [
        (
            f"{label}/{policy}",
            {"policy": policy, "system_kind": kind, "system_kwargs": kwargs,
             "faults": faults},
        )
        for label, kind, kwargs, faults, policies in MECHANISMS
        for policy in policies
    ]
    return Workload(
        _task_units(seed, factor, cells),
        _warmup_unit(factor, seed, faults=FAULTS),
    )


# ----------------------------------------------------------------------
# traced_export: one fully traced run through runner.run, then exports
# ----------------------------------------------------------------------
TELEMETRY = TelemetryConfig(
    events=True, spans=True, decisions=True, sample_interval=50.0
)


def _export_unit(name: str, seed: int, warmup: float, duration: float) -> Unit:
    config = paper_defaults()
    spec = RunSpec(warmup=warmup, duration=duration, seed=seed, telemetry=TELEMETRY)

    def run(workdir: Path) -> Outcome:
        report = runner.run(config, "LERT", spec)
        exports = (
            Export("spans", report.write_spans(workdir / "spans.json"),
                   len(report.spans), read_spans_chrome),
            Export("decisions", report.write_decisions(workdir / "decisions.jsonl"),
                   len(report.decisions), read_decisions_jsonl),
            Export("events", report.write_events(workdir / "events.jsonl"),
                   len(report.events), read_events_jsonl),
            Export("timeline", report.write_timeline(workdir / "timeline.csv"),
                   len(report.timeline), read_timeline_csv),
        )
        return Outcome(
            cells=(_closed_cell(name, config, report.results),), exports=exports
        )

    return Unit(name, run)


def _traced_export(seed: int, factor: float) -> Workload:
    return Workload(
        (_export_unit("LERT", seed, 500.0 * factor, 16000.0 * factor),),
        _export_unit("warmup", seed, 100.0, 600.0 * factor),
    )


WORKLOADS = {
    "paper_sweep": _paper_sweep,
    "open_overload": _open_overload,
    "mechanisms": _mechanisms,
    "traced_export": _traced_export,
}


def build(name: str, seed: int, scale: str) -> Workload:
    """The workload *name*, its inputs derived from *seed* only."""
    return WORKLOADS[name](seed, SCALES[scale])


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_cell(cell: Cell, pin: Optional[str] = None) -> List[str]:
    """Every way *cell* is wrong, as messages (empty when it is right)."""
    problems = []
    results = cell.results
    for label, value in (
        ("cpu", results.cpu_utilization),
        ("disk", results.disk_utilization),
        ("subnet", results.subnet_utilization),
    ):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{label} utilization {value!r} outside [0, 1]")
    if cell.terminals:
        throughput = results.completions / results.measured_time
        population = throughput * (results.mean_response_time + cell.think_time)
        error = population / cell.terminals - 1.0
        if not abs(error) <= LAW_SIGMAS / math.sqrt(max(results.completions, 1)):
            problems.append(
                f"N = X(R+Z) off by {error:+.1%} "
                f"({population:.2f} vs {cell.terminals} terminals)"
            )
    else:
        summary = results.workload
        if summary is None:
            problems.append("open cell has no workload summary")
        elif summary.offered != summary.admitted + summary.shed:
            problems.append(
                f"offered {summary.offered} != admitted {summary.admitted} "
                f"+ shed {summary.shed}"
            )
    if pin is not None and cell.digest != pin:
        problems.append(f"digest {cell.digest[:12]} != pin {pin[:12]}")
    return problems


def check_export(export: Export) -> List[str]:
    """Whether *export* re-parses into as many records as were written."""
    try:
        parsed = export.reader(export.path)
    except Exception as error:  # any parse failure is the finding
        return [f"does not re-parse: {type(error).__name__}: {error}"]
    if len(parsed) != export.records:
        return [f"re-parsed {len(parsed)} records, wrote {export.records}"]
    return []


def check_outcome(
    outcome: Outcome, pins: Optional[Mapping[str, str]]
) -> Dict[str, List[str]]:
    """Failures of every cell and export of one unit, keyed by name."""
    failures = {}
    for cell in outcome.cells:
        pin = None if pins is None else pins.get(cell.name, "missing")
        problems = check_cell(cell, pin)
        if problems:
            failures[cell.name] = problems
    for export in outcome.exports:
        problems = check_export(export)
        if problems:
            failures[f"export:{export.name}"] = problems
    return failures
