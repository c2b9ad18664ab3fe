"""Experiment F1 — allocation policies under site failures.

The paper's §5 experiments assume perfectly reliable sites.  This
experiment drops that assumption: each cell runs a policy under a
stochastic crash/repair process (:class:`~repro.faults.plan.RandomOutages`
at every site) and reports how mean waiting time W̄ degrades as the
failure rate rises, next to a faultless baseline.  Load-sharing policies
keep their advantage under faults — the degraded life cycle reallocates
aborted queries to the surviving sites — while LOCAL queries issued at a
crashed site must wait out the outage via retry backoff.

Cells fan out through the parallel backend and are answered from the
content-addressed result cache; a faulted cell can never collide with a
faultless one because the plan is folded into the cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import AveragedResults
from repro.experiments.context import StudyContext
from repro.experiments.parallel import replication_tasks, simulate_many
from repro.experiments.report import TextTable
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.faults.plan import FaultPlan, RandomOutages
from repro.model.config import paper_defaults

#: Mean time between failures per site, in simulated time units
#: (smaller = failures more frequent).  ``None`` is the faultless baseline.
FAILURE_MTBFS: Tuple[Optional[float], ...] = (None, 4000.0, 2000.0, 1000.0)

#: Mean time to repair one crashed site.
MTTR = 50.0

POLICIES: Tuple[str, ...] = ("LOCAL", "BNQ", "BNQRD", "LERT")


def failure_plan(mtbf: float, mttr: float = MTTR) -> FaultPlan:
    """A plan crashing every site independently at rate ``1/mtbf``."""
    return FaultPlan(random_outages=(RandomOutages(mtbf=mtbf, mttr=mttr),))


@dataclass(frozen=True)
class FailureCell:
    """One (failure rate, policy) cell of the grid."""

    mtbf: Optional[float]
    policy: str
    averaged: AveragedResults

    @property
    def rate_label(self) -> str:
        return "none" if self.mtbf is None else f"{self.mtbf:g}"

    # Availability aggregates, summed over replications (0 for baseline).
    def _sum(self, attribute: str) -> float:
        total = 0.0
        for run in self.averaged.per_replication:
            if run.availability is not None:
                total += getattr(run.availability, attribute)
        return total

    @property
    def downtime(self) -> float:
        return self._sum("total_downtime")

    @property
    def aborted(self) -> int:
        return int(self._sum("queries_aborted"))

    @property
    def retried(self) -> int:
        return int(self._sum("queries_retried"))

    @property
    def lost(self) -> int:
        return int(self._sum("queries_lost"))


@dataclass(frozen=True)
class FailureResult:
    """The full grid, in (failure rate, policy) order."""

    cells: Tuple[FailureCell, ...]
    settings: RunSettings

    def cell(self, mtbf: Optional[float], policy: str) -> FailureCell:
        for candidate in self.cells:
            if candidate.mtbf == mtbf and candidate.policy == policy:
                return candidate
        raise KeyError(f"no cell for mtbf={mtbf} policy={policy}")

    def by_rate(self) -> Dict[Optional[float], List[FailureCell]]:
        grouped: Dict[Optional[float], List[FailureCell]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.mtbf, []).append(cell)
        return grouped

    def load_sharing_beats_local_under_faults(self) -> bool:
        """Sanity check: at the highest failure rate, LERT still beats LOCAL."""
        worst = min(m for m in {c.mtbf for c in self.cells} if m is not None)
        return (
            self.cell(worst, "LERT").averaged.mean_waiting_time
            < self.cell(worst, "LOCAL").averaged.mean_waiting_time
        )


def run_experiment(
    settings: RunSettings = STANDARD,
    mtbfs: Tuple[Optional[float], ...] = FAILURE_MTBFS,
    *,
    context: StudyContext = StudyContext(),
) -> FailureResult:
    """Run the policy × failure-rate grid (parallel and cached)."""
    config = paper_defaults()
    keys = [(mtbf, policy) for mtbf in mtbfs for policy in POLICIES]
    averaged = simulate_many(
        [
            replication_tasks(
                config,
                policy,
                settings if mtbf is None else settings.with_faults(failure_plan(mtbf)),
            )
            for mtbf, policy in keys
        ],
        context=context,
    )
    cells = tuple(
        FailureCell(mtbf=mtbf, policy=policy, averaged=cell)
        for (mtbf, policy), cell in zip(keys, averaged)
    )
    return FailureResult(cells=cells, settings=settings)


def format_table(result: FailureResult) -> str:
    """Render the W̄ grid and the availability detail."""
    waiting = TextTable(
        ["site MTBF", *POLICIES],
        title=f"Mean waiting time W under site failures (MTTR={MTTR:g})",
    )
    for mtbf, cells in result.by_rate().items():
        by_policy = {cell.policy: cell for cell in cells}
        waiting.add_row(
            "none" if mtbf is None else f"{mtbf:g}",
            *(
                f"{by_policy[policy].averaged.mean_waiting_time:.2f}"
                for policy in POLICIES
            ),
        )
    detail = TextTable(
        ["site MTBF", "policy", "downtime", "aborted", "retried", "lost"],
        title="Availability detail (summed over replications)",
    )
    for cell in result.cells:
        if cell.mtbf is None:
            continue
        detail.add_row(
            cell.rate_label,
            cell.policy,
            f"{cell.downtime:.0f}",
            str(cell.aborted),
            str(cell.retried),
            str(cell.lost),
        )
    return waiting.render() + "\n\n" + detail.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
