"""Experiment E5 — Table 10: system capacity (max mpl per response bound).

"The multiprogramming level of each of the DB sites can be increased without
decreasing the mean query response time" — Table 10 quantifies that by
reporting, for each expected-response-time bound, the largest mpl the system
sustains under LOCAL versus LERT.

Implementation: measure mean response time over a grid of mpl values for
each policy (response time is monotone in mpl in a closed system), then for
each bound report the largest mpl whose measured response stays at or below
the bound.  Simulation noise is handled by isotonic smoothing of the
response curve (running maximum), which preserves monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import policy_grid
from repro.experiments.context import StudyContext
from repro.experiments.paper_data import TABLE10_CAPACITY
from repro.experiments.report import TextTable
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import paper_defaults

BOUNDS: Tuple[float, ...] = (40.0, 50.0, 60.0, 70.0, 80.0)
POLICIES: Tuple[str, ...] = ("LOCAL", "LERT")
DEFAULT_MPL_GRID: Tuple[int, ...] = tuple(range(6, 41, 2))


@dataclass(frozen=True)
class Table10Result:
    """Response-time curves and the derived capacity table."""

    mpl_grid: Tuple[int, ...]
    response_curves: Dict[str, Tuple[float, ...]]
    settings: RunSettings

    def smoothed_curve(self, policy: str) -> List[float]:
        """Monotone (running-max) response-time curve over the mpl grid."""
        smoothed: List[float] = []
        best = float("-inf")
        for value in self.response_curves[policy]:
            best = max(best, value)
            smoothed.append(best)
        return smoothed

    def max_mpl(self, policy: str, bound: float) -> int:
        """Largest grid mpl whose smoothed response is within *bound*."""
        curve = self.smoothed_curve(policy)
        feasible = [
            mpl for mpl, rt in zip(self.mpl_grid, curve) if rt <= bound
        ]
        return max(feasible) if feasible else 0


def run_experiment(
    settings: RunSettings = STANDARD,
    mpl_grid: Tuple[int, ...] = DEFAULT_MPL_GRID,
    *,
    context: StudyContext = StudyContext(),
) -> Table10Result:
    grid = policy_grid(
        [paper_defaults(mpl=mpl) for mpl in mpl_grid], POLICIES, settings, context
    )
    return Table10Result(
        mpl_grid=tuple(mpl_grid),
        response_curves={
            name: tuple(results[name].mean_response_time for results in grid)
            for name in POLICIES
        },
        settings=settings,
    )


def format_table(result: Table10Result) -> str:
    table = TextTable(
        ["RT bound", "LOCAL", "LERT", "paper LOCAL", "paper LERT"],
        title="Table 10: maximum mpl versus response time",
    )
    for bound in BOUNDS:
        paper = TABLE10_CAPACITY.get(bound, ("", ""))
        table.add_row(
            f"<= {bound:.0f}",
            str(result.max_mpl("LOCAL", bound)),
            str(result.max_mpl("LERT", bound)),
            str(paper[0]),
            str(paper[1]),
        )
    return table.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
