"""Experiment E2 — allocation policies under open heavy-traffic arrivals.

The paper's §5 experiments close the system: ``mpl`` terminals per site
resubmit only after their previous query returns, so offered load
self-regulates and overload cannot occur.  This experiment opens it:
each cell drives a policy with an open arrival process
(:class:`~repro.workloads.arrivals.PoissonOpen` or a bursty
:class:`~repro.workloads.arrivals.MMPP`) at a per-site rate expressed as
a fraction of the estimated per-site service capacity
(:func:`~repro.workloads.spec.estimate_site_capacity`), under bounded
per-site admission control.  Reported per cell: mean response time and
the shed fraction — how much of the offered load the admission limit
turned away.  Past saturation (load factor > 1) response time is bounded
by the admission limit and the shed fraction absorbs the excess;
load-sharing policies shed less than LOCAL because they drain hot sites
through the idle ones.

Cells fan out through the parallel backend and are answered from the
content-addressed result cache; an open cell can never collide with a
closed one because the workload spec is folded into the cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import AveragedResults, TextTable, average_results
from repro.experiments.parallel import ReplicationTask, replication_tasks, run_tasks
from repro.experiments.context import StudyContext
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import paper_defaults
from repro.workloads.arrivals import MMPP, PoissonOpen
from repro.workloads.spec import (
    AdmissionControl,
    WorkloadSpec,
    estimate_site_capacity,
)

#: Per-site offered load as a fraction of estimated service capacity
#: (the last level is past saturation — only admission control keeps it
#: stable).
LOAD_FACTORS: Tuple[float, ...] = (0.5, 0.8, 1.1)

#: Arrival-process kinds in the grid.
ARRIVAL_KINDS: Tuple[str, ...] = ("poisson", "mmpp")

#: Per-site admission limit (admitted open queries in the system).
MAX_PENDING = 32

#: MMPP shape: a lull phase at 0.2x and a burst phase at 1.8x the target
#: rate, equal mean holding times — same long-run rate as the Poisson
#: cell at the same load factor, but delivered in flash crowds.
MMPP_RATE_SPLIT: Tuple[float, float] = (0.2, 1.8)
MMPP_MEAN_HOLDING: Tuple[float, float] = (400.0, 400.0)

POLICIES: Tuple[str, ...] = ("LOCAL", "BNQ", "BNQRD", "LERT")


def workload_for(kind: str, rate: float) -> WorkloadSpec:
    """The workload spec of one grid cell (*rate* is per site)."""
    if kind == "poisson":
        return WorkloadSpec(
            arrivals=PoissonOpen(rate=rate),
            admission=AdmissionControl(max_pending=MAX_PENDING),
        )
    if kind == "mmpp":
        lull, burst = MMPP_RATE_SPLIT
        return WorkloadSpec(
            arrivals=MMPP(
                rates=(lull * rate, burst * rate),
                mean_holding=MMPP_MEAN_HOLDING,
            ),
            admission=AdmissionControl(max_pending=MAX_PENDING),
        )
    raise ValueError(f"unknown arrival kind {kind!r}")


@dataclass(frozen=True)
class OpenCell:
    """One (arrival kind, load factor, policy) cell of the grid."""

    kind: str
    load_factor: float
    policy: str
    averaged: AveragedResults

    @property
    def label(self) -> str:
        return f"{self.kind}@{self.load_factor:g}"

    # Admission aggregates, summed over replications.
    def _sum(self, attribute: str) -> float:
        total = 0.0
        for run in self.averaged.per_replication:
            if run.workload is not None:
                total += getattr(run.workload, attribute)
        return total

    @property
    def offered(self) -> int:
        return int(self._sum("offered"))

    @property
    def admitted(self) -> int:
        return int(self._sum("admitted"))

    @property
    def shed(self) -> int:
        return int(self._sum("shed"))

    @property
    def shed_fraction(self) -> float:
        offered = self.offered
        return self.shed / offered if offered > 0 else 0.0


@dataclass(frozen=True)
class OpenSystemResult:
    """The full grid, in (arrival kind, load factor, policy) order."""

    cells: Tuple[OpenCell, ...]
    settings: RunSettings
    site_capacity: float

    def cell(self, kind: str, load_factor: float, policy: str) -> OpenCell:
        for candidate in self.cells:
            if (
                candidate.kind == kind
                and candidate.load_factor == load_factor
                and candidate.policy == policy
            ):
                return candidate
        raise KeyError(
            f"no cell for kind={kind} load={load_factor} policy={policy}"
        )

    def by_level(self) -> Dict[Tuple[str, float], List[OpenCell]]:
        grouped: Dict[Tuple[str, float], List[OpenCell]] = {}
        for cell in self.cells:
            grouped.setdefault((cell.kind, cell.load_factor), []).append(cell)
        return grouped

    def load_sharing_sheds_less_past_saturation(self) -> bool:
        """Sanity check: past saturation, LERT sheds no more than LOCAL."""
        worst = max(c.load_factor for c in self.cells)
        return (
            self.cell("poisson", worst, "LERT").shed
            <= self.cell("poisson", worst, "LOCAL").shed
        )


def run_experiment(
    settings: RunSettings = STANDARD,
    load_factors: Tuple[float, ...] = LOAD_FACTORS,
    kinds: Tuple[str, ...] = ARRIVAL_KINDS,
    *,
    context: StudyContext = StudyContext(),
) -> OpenSystemResult:
    """Run the policy × arrival process × load-level grid."""
    config = paper_defaults()
    capacity = estimate_site_capacity(config)
    tasks: List[ReplicationTask] = []
    spans: List[Tuple[int, int, str, float, str]] = []
    for kind in kinds:
        for factor in load_factors:
            cell_settings = settings.with_workload(
                workload_for(kind, factor * capacity)
            )
            for policy in POLICIES:
                start = len(tasks)
                tasks.extend(
                    replication_tasks(config, policy, cell_settings)
                )
                spans.append((start, len(tasks), kind, factor, policy))
    runs = run_tasks(
        tasks, jobs=context.jobs, cache=context.cache, progress=context.progress
    )
    cells = tuple(
        OpenCell(
            kind=kind,
            load_factor=factor,
            policy=policy,
            averaged=average_results(policy, runs[start:stop]),
        )
        for start, stop, kind, factor, policy in spans
    )
    return OpenSystemResult(
        cells=cells, settings=settings, site_capacity=capacity
    )


def format_table(result: OpenSystemResult) -> str:
    """Render the response-time grid and the admission detail."""
    response = TextTable(
        ["arrivals@load", *POLICIES],
        title=(
            "Open-system mean response time "
            f"(per-site capacity ~{result.site_capacity:.4f} q/t, "
            f"max_pending={MAX_PENDING})"
        ),
    )
    for (kind, factor), cells in result.by_level().items():
        by_policy = {cell.policy: cell for cell in cells}
        response.add_row(
            f"{kind}@{factor:g}",
            *(
                f"{by_policy[policy].averaged.mean_response_time:.2f}"
                for policy in POLICIES
            ),
        )
    detail = TextTable(
        ["arrivals@load", "policy", "offered", "admitted", "shed", "shed%"],
        title="Admission detail (summed over replications)",
    )
    for cell in result.cells:
        detail.add_row(
            cell.label,
            cell.policy,
            str(cell.offered),
            str(cell.admitted),
            str(cell.shed),
            f"{cell.shed_fraction:.1%}",
        )
    return response.render() + "\n\n" + detail.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
