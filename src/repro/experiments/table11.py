"""Experiment E6 — Table 11: waiting time and subnet utilization vs sites.

Sweeps the number of DB sites from 2 to 10 for LOCAL, BNQ and LERT.  The
paper's observation to reproduce: improvement over LOCAL peaks at an
intermediate number of sites (6–8 for these parameters) because more sites
improve placement options but also congest the shared token ring.
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
from repro.experiments.paper_data import TABLE11_SITES
from repro.experiments.context import StudyContext
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import paper_defaults

SITE_COUNTS: Tuple[int, ...] = (2, 4, 6, 8, 10)
POLICIES: Tuple[str, ...] = ("LOCAL", "BNQ", "LERT")


@dataclass(frozen=True)
class Table11Row:
    num_sites: int
    results: Dict[str, AveragedResults]

    @property
    def w_local(self) -> float:
        return self.results["LOCAL"].mean_waiting_time

    def vs_local(self, policy: str) -> float:
        return improvement_pct(self.results[policy].mean_waiting_time, self.w_local)

    def subnet_utilization(self, policy: str) -> float:
        return 100.0 * self.results[policy].subnet_utilization


@dataclass(frozen=True)
class Table11Result:
    rows: Tuple[Table11Row, ...]
    settings: RunSettings

    def peak_improvement_sites(self, policy: str = "LERT") -> int:
        """Number of sites where the improvement over LOCAL peaks."""
        best = max(self.rows, key=lambda row: row.vs_local(policy))
        return best.num_sites


def run_experiment(
    settings: RunSettings = STANDARD,
    site_counts: Tuple[int, ...] = SITE_COUNTS,
    *,
    context: StudyContext = StudyContext(),
) -> Table11Result:
    pairs = [
        (paper_defaults(num_sites=num_sites), name)
        for num_sites in site_counts
        for name in POLICIES
    ]
    averaged = iter(simulate_many(
        pairs,
        settings,
        jobs=context.jobs,
        cache=context.cache,
        progress=context.progress,
    ))
    rows: List[Table11Row] = []
    for num_sites in site_counts:
        results = {name: next(averaged) for name in POLICIES}
        rows.append(Table11Row(num_sites=num_sites, results=results))
    return Table11Result(rows=tuple(rows), settings=settings)


def format_table(result: Table11Result) -> str:
    table = TextTable(
        [
            "sites",
            "who",
            "W_LOCAL",
            "dBNQ%",
            "dLERT%",
            "subnet BNQ%",
            "subnet LERT%",
        ],
        title="Table 11: waiting time and subnet utilization versus number of sites",
    )
    for row in result.rows:
        table.add_row(
            str(row.num_sites),
            "repro",
            f"{row.w_local:.2f}",
            f"{row.vs_local('BNQ'):.2f}",
            f"{row.vs_local('LERT'):.2f}",
            f"{row.subnet_utilization('BNQ'):.2f}",
            f"{row.subnet_utilization('LERT'):.2f}",
        )
        paper = TABLE11_SITES.get(row.num_sites)
        if paper is not None:
            table.add_row("", "paper", "21.53", *[f"{v:.2f}" for v in paper])
    return table.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
