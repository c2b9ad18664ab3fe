"""Study execution: grid in, per-cell averages out.

:func:`run_study` expands a spec and pushes *all* cells' replication
tasks through :func:`~repro.experiments.parallel.simulate_many` as one
batch (so ``--jobs N`` fans the whole study out, duplicates are
simulated once, and the cache answers anything already run), which
folds each cell's replications into one
:class:`~repro.experiments.common.AveragedResults`.

Determinism contract: every aggregate uses :func:`math.fsum` (whose
correctly rounded result is permutation invariant), and the runner
returns results in task order regardless of scheduling — so a study's
outcome, and therefore its rendered report, is byte-identical between
serial and parallel execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ablation.grid import StudyGrid, expand
from repro.ablation.spec import StudySpec
from repro.experiments.common import AveragedResults
from repro.experiments.context import StudyContext
from repro.experiments.parallel import simulate_many


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell: identity, run IDs and replication averages."""

    label: str
    component: Optional[str]
    variant: Optional[str]
    run_ids: Tuple[str, ...]
    averaged: AveragedResults


@dataclass(frozen=True)
class StudyOutcome:
    """A fully executed study."""

    spec: StudySpec
    baseline: CellOutcome
    cells: Tuple[CellOutcome, ...]

    def cell(self, label: str) -> CellOutcome:
        """Look up one executed cell by label (including ``"baseline"``)."""
        if label == self.baseline.label:
            return self.baseline
        for candidate in self.cells:
            if candidate.label == label:
                return candidate
        raise KeyError(f"study {self.spec.name!r} has no cell {label!r}")

    def cells_for(self, component: str) -> Tuple[CellOutcome, ...]:
        """Every executed cell of one component, in spec order."""
        return tuple(c for c in self.cells if c.component == component)


def run_grid(
    grid: StudyGrid, *, context: StudyContext = StudyContext()
) -> StudyOutcome:
    """Execute an already-expanded grid (see :func:`run_study`)."""
    cells = grid.all_cells()
    averaged = simulate_many([cell.tasks for cell in cells], context=context)
    outcomes = tuple(
        CellOutcome(
            label=cell.label,
            component=cell.component,
            variant=cell.variant,
            run_ids=cell.run_ids,
            averaged=cell_averaged,
        )
        for cell, cell_averaged in zip(cells, averaged)
    )
    return StudyOutcome(
        spec=grid.spec, baseline=outcomes[0], cells=outcomes[1:]
    )


def run_study(
    spec: StudySpec, *, context: StudyContext = StudyContext()
) -> StudyOutcome:
    """Expand and execute *spec* under *context*.

    One flat task batch covers the whole study, so ``context.jobs``
    parallelizes across cells *and* replications, and ``context.cache``
    answers any previously simulated cell.  The outcome is byte-identical
    for any ``jobs`` value.
    """
    return run_grid(expand(spec), context=context)


__all__ = [
    "CellOutcome",
    "StudyOutcome",
    "run_grid",
    "run_study",
]
