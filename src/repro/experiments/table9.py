"""Experiment E4 — Table 9: waiting time versus multiprogramming level.

Same comparison structure as Table 8, but system load is varied by the
number of terminals per site (mpl 15–35) at the default think time 350.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    AveragedResults,
    TextTable,
    improvement_pct,
)
from repro.experiments.parallel import simulate_many
from repro.experiments.paper_data import TABLE9_MPL
from repro.experiments.context import StudyContext
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import paper_defaults

MPL_VALUES: Tuple[int, ...] = (15, 20, 25, 30, 35)
POLICIES: Tuple[str, ...] = ("LOCAL", "BNQ", "BNQRD", "LERT")


@dataclass(frozen=True)
class Table9Row:
    mpl: int
    results: Dict[str, AveragedResults]

    @property
    def rho_c(self) -> float:
        return self.results["LOCAL"].cpu_utilization

    @property
    def w_local(self) -> float:
        return self.results["LOCAL"].mean_waiting_time

    def vs_local(self, policy: str) -> float:
        return improvement_pct(self.results[policy].mean_waiting_time, self.w_local)

    def vs_bnq(self, policy: str) -> float:
        return improvement_pct(
            self.results[policy].mean_waiting_time,
            self.results["BNQ"].mean_waiting_time,
        )


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
    pairs = [
        (paper_defaults(mpl=mpl), name) for mpl in mpl_values for name in POLICIES
    ]
    averaged = iter(simulate_many(
        pairs,
        settings,
        jobs=context.jobs,
        cache=context.cache,
        progress=context.progress,
    ))
    rows: List[Table9Row] = []
    for mpl in mpl_values:
        results = {name: next(averaged) for name in POLICIES}
        rows.append(Table9Row(mpl=mpl, results=results))
    return Table9Result(rows=tuple(rows), settings=settings)


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
