"""Experiment E3 — Table 8: waiting time versus think time.

Simulates the four policies (LOCAL, BNQ, BNQRD, LERT) across the paper's
think-time range 150–450 and reports, per think time:

* the CPU utilization ρ_c under LOCAL,
* W̄_LOCAL,
* the percentage improvements of each dynamic policy over LOCAL, and
* the improvements of the information-based policies over BNQ.
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
from repro.experiments.paper_data import TABLE8_THINK
from repro.experiments.context import StudyContext
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import paper_defaults

THINK_TIMES: Tuple[float, ...] = (150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0)
POLICIES: Tuple[str, ...] = ("LOCAL", "BNQ", "BNQRD", "LERT")


@dataclass(frozen=True)
class Table8Row:
    """One think-time row: results per policy plus derived improvements."""

    think_time: float
    results: Dict[str, AveragedResults]

    @property
    def rho_c(self) -> float:
        return self.results["LOCAL"].cpu_utilization

    @property
    def w_local(self) -> float:
        return self.results["LOCAL"].mean_waiting_time

    def vs_local(self, policy: str) -> float:
        return improvement_pct(
            self.results[policy].mean_waiting_time, self.w_local
        )

    def vs_bnq(self, policy: str) -> float:
        return improvement_pct(
            self.results[policy].mean_waiting_time,
            self.results["BNQ"].mean_waiting_time,
        )


@dataclass(frozen=True)
class Table8Result:
    rows: Tuple[Table8Row, ...]
    settings: RunSettings


def run_experiment(
    settings: RunSettings = STANDARD,
    think_times: Tuple[float, ...] = THINK_TIMES,
    *,
    context: StudyContext = StudyContext(),
) -> Table8Result:
    """Sweep think_time × policy with common random numbers.

    All cells fan out together when ``jobs > 1``; reassembly is
    deterministic, so the result is identical to a serial run.
    """
    pairs = [
        (paper_defaults(think_time=think_time), name)
        for think_time in think_times
        for name in POLICIES
    ]
    averaged = iter(simulate_many(
        pairs,
        settings,
        jobs=context.jobs,
        cache=context.cache,
        progress=context.progress,
    ))
    rows: List[Table8Row] = []
    for think_time in think_times:
        results = {name: next(averaged) for name in POLICIES}
        rows.append(Table8Row(think_time=think_time, results=results))
    return Table8Result(rows=tuple(rows), settings=settings)


def format_table(result: Table8Result) -> str:
    table = TextTable(
        [
            "think",
            "who",
            "rho_c",
            "W_LOCAL",
            "dBNQ%",
            "dBNQRD%",
            "dLERT%",
            "dBNQRD/BNQ%",
            "dLERT/BNQ%",
        ],
        title="Table 8: waiting time versus think time",
    )
    for row in result.rows:
        table.add_row(
            f"{row.think_time:.0f}",
            "repro",
            f"{row.rho_c:.2f}",
            f"{row.w_local:.2f}",
            f"{row.vs_local('BNQ'):.2f}",
            f"{row.vs_local('BNQRD'):.2f}",
            f"{row.vs_local('LERT'):.2f}",
            f"{row.vs_bnq('BNQRD'):.2f}",
            f"{row.vs_bnq('LERT'):.2f}",
        )
        paper = TABLE8_THINK.get(row.think_time)
        if paper is not None:
            table.add_row(
                "", "paper", *[f"{v:.2f}" for v in paper]
            )
    return table.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
