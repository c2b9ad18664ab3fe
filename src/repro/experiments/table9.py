"""Experiment E4 — Table 9: waiting time versus multiprogramming level.

Same comparison structure as Table 8, but system load is varied by the
number of terminals per site (mpl 15–35) at the default think time 350.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import AveragedResults, PolicyComparison, policy_grid
from repro.experiments.context import StudyContext
from repro.experiments.paper_data import TABLE9_MPL
from repro.experiments.report import TextTable
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import paper_defaults

MPL_VALUES: Tuple[int, ...] = (15, 20, 25, 30, 35)
POLICIES: Tuple[str, ...] = ("LOCAL", "BNQ", "BNQRD", "LERT")


@dataclass(frozen=True)
class Table9Row(PolicyComparison):
    mpl: int
    results: Dict[str, AveragedResults]


@dataclass(frozen=True)
class Table9Result:
    rows: Tuple[Table9Row, ...]
    settings: RunSettings


def run_experiment(
    settings: RunSettings = STANDARD,
    mpl_values: Tuple[int, ...] = MPL_VALUES,
    *,
    context: StudyContext = StudyContext(),
) -> Table9Result:
    configs = [paper_defaults(mpl=mpl) for mpl in mpl_values]
    grid = policy_grid(configs, POLICIES, settings, context)
    rows = tuple(
        Table9Row(mpl=mpl, results=results)
        for mpl, results in zip(mpl_values, grid)
    )
    return Table9Result(rows=rows, settings=settings)


def format_table(result: Table9Result) -> str:
    table = TextTable(
        [
            "mpl",
            "who",
            "rho_c",
            "W_LOCAL",
            "dBNQ%",
            "dBNQRD%",
            "dLERT%",
            "dBNQRD/BNQ%",
            "dLERT/BNQ%",
        ],
        title="Table 9: waiting time versus mpl",
    )
    for row in result.rows:
        table.add_row(
            str(row.mpl),
            "repro",
            f"{row.rho_c:.2f}",
            f"{row.w_local:.2f}",
            f"{row.vs_local('BNQ'):.2f}",
            f"{row.vs_local('BNQRD'):.2f}",
            f"{row.vs_local('LERT'):.2f}",
            f"{row.vs_bnq('BNQRD'):.2f}",
            f"{row.vs_bnq('LERT'):.2f}",
        )
        paper = TABLE9_MPL.get(row.mpl)
        if paper is not None:
            table.add_row("", "paper", *[f"{v:.2f}" for v in paper])
    return table.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
