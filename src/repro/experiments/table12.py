"""Experiment E7 — Table 12: W̄ and fairness F versus class_io_prob.

Varies the I/O-bound class probability from 0.3 to 0.8, which skews the
system toward favoring one class under LOCAL.  Reproduction targets:

* F_LOCAL moves from negative (I/O class favored) through ~0 to positive
  (CPU class favored) as class_io_prob rises;
* dynamic allocation improves W̄ at every mix;
* dynamic allocation shrinks |F| whenever |F_LOCAL| is appreciable
  (the paper's ΔF entries are negative only around the F≈0 crossover,
  where the baseline is already fair and relative changes are unstable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import AveragedResults, PolicyComparison, policy_grid
from repro.experiments.context import StudyContext
from repro.experiments.paper_data import TABLE12_FAIRNESS
from repro.experiments.report import TextTable
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import paper_defaults

IO_PROBS: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
POLICIES: Tuple[str, ...] = ("LOCAL", "BNQ", "LERT")


@dataclass(frozen=True)
class Table12Row(PolicyComparison):
    class_io_prob: float
    results: Dict[str, AveragedResults]

    @property
    def f_local(self) -> float:
        return self.results["LOCAL"].fairness or 0.0

    @property
    def rho_ratio(self) -> float:
        return self.results["LOCAL"].rho_ratio

    def fairness_improvement(self, policy: str) -> float:
        """ΔF_X,LOCAL / F_LOCAL in percent, on |F| (shrinking is positive)."""
        f_local = abs(self.f_local)
        f_policy = abs(self.results[policy].fairness or 0.0)
        if f_local == 0:
            return 0.0
        return 100.0 * (f_local - f_policy) / f_local


@dataclass(frozen=True)
class Table12Result:
    rows: Tuple[Table12Row, ...]
    settings: RunSettings

    def f_local_crosses_zero(self) -> bool:
        """Whether F_LOCAL changes sign across the sweep (paper: yes)."""
        values = [row.f_local for row in self.rows]
        return min(values) < 0 < max(values)


def run_experiment(
    settings: RunSettings = STANDARD,
    io_probs: Tuple[float, ...] = IO_PROBS,
    *,
    context: StudyContext = StudyContext(),
) -> Table12Result:
    configs = [paper_defaults(class_io_prob=prob) for prob in io_probs]
    grid = policy_grid(configs, POLICIES, settings, context)
    rows = tuple(
        Table12Row(class_io_prob=prob, results=results)
        for prob, results in zip(io_probs, grid)
    )
    return Table12Result(rows=rows, settings=settings)


def format_table(result: Table12Result) -> str:
    table = TextTable(
        [
            "io_prob",
            "who",
            "rho_d/rho_c",
            "W_LOCAL",
            "dBNQ%",
            "dLERT%",
            "F_LOCAL",
            "dF BNQ%",
            "dF LERT%",
        ],
        title="Table 12: W and F versus class_io_prob",
    )
    for row in result.rows:
        table.add_row(
            f"{row.class_io_prob:.1f}",
            "repro",
            f"{row.rho_ratio:.2f}",
            f"{row.w_local:.2f}",
            f"{row.vs_local('BNQ'):.2f}",
            f"{row.vs_local('LERT'):.2f}",
            f"{row.f_local:+.3f}",
            f"{row.fairness_improvement('BNQ'):.2f}",
            f"{row.fairness_improvement('LERT'):.2f}",
        )
        paper = TABLE12_FAIRNESS.get(round(row.class_io_prob, 1))
        if paper is not None:
            table.add_row(
                "",
                "paper",
                f"{paper[0]:.2f}",
                f"{paper[1]:.2f}",
                f"{paper[2]:.2f}",
                f"{paper[3]:.2f}",
                f"{paper[4]:+.3f}",
                f"{paper[5]:.2f}",
                f"{paper[6]:.2f}",
            )
    return table.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
