"""Experiment E8 — message-length sensitivity (§5.2 text, not a table).

The paper reports that raising ``msg_length`` from 1.0 to 2.0 at
think_time 350 widens the gap between BNQRD (which ignores communication
cost) and LERT (which charges it): improvements over BNQ become 16.43% and
24.12% respectively.  This experiment sweeps ``msg_length`` and reports the
two policies' improvement over BNQ at each setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import AveragedResults, PolicyComparison, policy_grid
from repro.experiments.context import StudyContext
from repro.experiments.paper_data import (
    MSG_LENGTH2_BNQRD_VS_BNQ,
    MSG_LENGTH2_LERT_VS_BNQ,
)
from repro.experiments.report import TextTable
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import paper_defaults

MSG_LENGTHS: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
POLICIES: Tuple[str, ...] = ("BNQ", "BNQRD", "LERT")


@dataclass(frozen=True)
class MsgSensitivityRow(PolicyComparison):
    msg_length: float
    results: Dict[str, AveragedResults]

    @property
    def lert_advantage(self) -> float:
        """LERT's improvement over BNQ minus BNQRD's (the gap to watch)."""
        return self.vs_bnq("LERT") - self.vs_bnq("BNQRD")


@dataclass(frozen=True)
class MsgSensitivityResult:
    rows: Tuple[MsgSensitivityRow, ...]
    settings: RunSettings

    def gap_widens_with_msg_length(self) -> bool:
        """Paper's claim: the LERT-vs-BNQRD gap grows with msg_length."""
        gaps = [row.lert_advantage for row in self.rows]
        return gaps[-1] > gaps[0]


def run_experiment(
    settings: RunSettings = STANDARD,
    msg_lengths: Tuple[float, ...] = MSG_LENGTHS,
    *,
    context: StudyContext = StudyContext(),
) -> MsgSensitivityResult:
    configs = [paper_defaults(msg_length=msg_length) for msg_length in msg_lengths]
    grid = policy_grid(configs, POLICIES, settings, context)
    rows = tuple(
        MsgSensitivityRow(msg_length=msg_length, results=results)
        for msg_length, results in zip(msg_lengths, grid)
    )
    return MsgSensitivityResult(rows=rows, settings=settings)


def format_table(result: MsgSensitivityResult) -> str:
    table = TextTable(
        ["msg_length", "dBNQRD/BNQ%", "dLERT/BNQ%", "LERT advantage"],
        title="Message-length sensitivity (paper at 2.0: "
        f"BNQRD {MSG_LENGTH2_BNQRD_VS_BNQ}%, LERT {MSG_LENGTH2_LERT_VS_BNQ}%)",
    )
    for row in result.rows:
        table.add_row(
            f"{row.msg_length:.1f}",
            f"{row.vs_bnq('BNQRD'):.2f}",
            f"{row.vs_bnq('LERT'):.2f}",
            f"{row.lert_advantage:+.2f}",
        )
    return table.render()


if __name__ == "__main__":
    print(format_table(run_experiment()))
