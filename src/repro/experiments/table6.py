"""Experiment E2 — Table 6: Fairness Improvement Factor FIF(L, i).

Analytic (exact MVA).  Same grid as Table 5, but measuring how much the
fairest allocation improves the system fairness measure (the absolute
difference of the classes' normalized waiting times) over the minimal-QD
allocation.
"""

from __future__ import annotations


from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.improvement import (
    PAPER_CPU_PAIRS,
    PAPER_LOADS,
    ImprovementCell,
    improvement_grid,
)
from repro.experiments.common import TextTable
from repro.experiments.paper_data import TABLE6_FIF


@dataclass(frozen=True)
class Table6Result:
    """The full FIF grid plus the paper's values for comparison."""

    grid: Tuple[Tuple[ImprovementCell, ...], ...]

    def measured_row(self, cpu_pair: Tuple[float, float]) -> List[float]:
        index = PAPER_CPU_PAIRS.index(cpu_pair)
        return [cell.fif for cell in self.grid[index]]

    def paper_row(self, cpu_pair: Tuple[float, float]) -> List[float]:
        return list(TABLE6_FIF[cpu_pair])

    def mean_absolute_deviation(self, cpu_pair: Tuple[float, float]) -> float:
        measured = self.measured_row(cpu_pair)
        paper = self.paper_row(cpu_pair)
        return sum(abs(a - b) for a, b in zip(measured, paper)) / len(paper)


def run_experiment() -> Table6Result:
    """Compute the Table 6 grid (shares the MVA cache with Table 5)."""
    grid = improvement_grid()
    return Table6Result(grid=tuple(tuple(row) for row in grid))


def format_table(result: Table6Result) -> str:
    headers = ["cpu1/cpu2", "who"] + [
        f"L{c + 1}.i{i + 1}" for c in range(len(PAPER_LOADS)) for i in range(2)
    ] + ["MAD"]
    table = TextTable(headers, title="Table 6: Fairness Improvement Factor FIF(L,i)")
    for pair in PAPER_CPU_PAIRS:
        mad = result.mean_absolute_deviation(pair)
        table.add_row(
            f"{pair[0]:.2f}/{pair[1]:.2f}",
            "repro",
            *[f"{v:.2f}" for v in result.measured_row(pair)],
            f"{mad:.3f}",
        )
        table.add_row("", "paper", *[f"{v:.2f}" for v in result.paper_row(pair)], "")
    return table.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
