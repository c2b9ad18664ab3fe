"""Experiment E1 — Table 5: Waiting Improvement Factor WIF(L, i).

Analytic (exact MVA); no simulation involved.  For each of the paper's six
CPU-demand pairs and six arrival conditions, computes how much the optimal
allocation improves the arriving query's expected waiting time per cycle
over the minimal-QD ("balance the number of queries") allocation.
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
from repro.experiments.report import TextTable
from repro.experiments.paper_data import TABLE5_WIF


@dataclass(frozen=True)
class Table5Result:
    """The full WIF grid plus the paper's values for comparison."""

    grid: Tuple[Tuple[ImprovementCell, ...], ...]

    def measured_row(self, cpu_pair: Tuple[float, float]) -> List[float]:
        index = PAPER_CPU_PAIRS.index(cpu_pair)
        return [cell.wif for cell in self.grid[index]]

    def paper_row(self, cpu_pair: Tuple[float, float]) -> List[float]:
        return list(TABLE5_WIF[cpu_pair])


def run_experiment() -> Table5Result:
    """Compute the Table 5 grid."""
    grid = improvement_grid()
    return Table5Result(grid=tuple(tuple(row) for row in grid))


def format_table(result: Table5Result) -> str:
    headers = ["cpu1/cpu2", "who"] + [
        f"L{c + 1}.i{i + 1}" for c in range(len(PAPER_LOADS)) for i in range(2)
    ]
    table = TextTable(headers, title="Table 5: Waiting Improvement Factor WIF(L,i)")
    for pair in PAPER_CPU_PAIRS:
        label = f"{pair[0]:.2f}/{pair[1]:.2f}"
        table.add_row(label, "repro", *[f"{v:.2f}" for v in result.measured_row(pair)])
        table.add_row("", "paper", *[f"{v:.2f}" for v in result.paper_row(pair)])
    return table.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
