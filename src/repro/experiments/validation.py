"""Substrate validation experiment: simulator vs exact MVA vs bounds.

Ties the three substrates together in one runnable check: for a set of
closed networks spanning the model's station types, solve exactly, solve
approximately, simulate on the DES kernel, and bound analytically — then
report everything side by side.  Any systematic disagreement would
invalidate the reproduction, so this is both a demo and a health check
(`repro-experiments validation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.report import TextTable
from repro.experiments.runconfig import RunSettings, STANDARD
from repro.queueing.amva import solve_amva
from repro.queueing.bounds import asymptotic_bounds
from repro.queueing.mva import solve_mva
from repro.queueing.network import ClosedNetwork, closed_network
from repro.queueing.simulate import simulate_network
from repro.queueing.stations import fcfs, multiserver, ps


@dataclass(frozen=True)
class ValidationCase:
    """One network/population pair to cross-validate."""

    name: str
    network: ClosedNetwork
    population: Tuple[int, ...]


def standard_cases() -> Tuple[ValidationCase, ...]:
    """Networks spanning every station type the model uses."""
    return (
        ValidationCase(
            "machine-repairman",
            closed_network([fcfs("server", [1.0])], ["jobs"], [10.0]),
            (8,),
        ),
        ValidationCase(
            "db-site (per-disk)",
            closed_network(
                [
                    fcfs("disk0", [0.5, 0.5]),
                    fcfs("disk1", [0.5, 0.5]),
                    ps("cpu", [0.05, 1.0]),
                ],
                ["io", "cpu"],
            ),
            (2, 2),
        ),
        ValidationCase(
            "db-site (pooled)",
            closed_network(
                [multiserver("disks", [1.0, 1.0], 2), ps("cpu", [0.05, 1.0])],
                ["io", "cpu"],
            ),
            (3, 2),
        ),
        ValidationCase(
            "terminal-driven",
            closed_network(
                [fcfs("disk", [1.0]), ps("cpu", [0.5])], ["jobs"], [8.0]
            ),
            (12,),
        ),
    )


@dataclass(frozen=True)
class ValidationRow:
    """Cross-validated throughput of one class in one case."""

    case: str
    class_name: str
    exact: float
    approximate: float
    simulated: float
    bound_low: float
    bound_high: float

    @property
    def sim_vs_exact_pct(self) -> float:
        if self.exact == 0:
            return 0.0
        return 100.0 * (self.simulated - self.exact) / self.exact

    @property
    def exact_within_bounds(self) -> bool:
        # Bounds are single-class constructs; multiclass rows carry NaN-ish
        # sentinels (negative) and skip the check.
        if self.bound_low < 0:
            return True
        return self.bound_low - 1e-9 <= self.exact <= self.bound_high + 1e-9


@dataclass(frozen=True)
class ValidationResult:
    rows: Tuple[ValidationRow, ...]

    def worst_sim_error_pct(self) -> float:
        return max(abs(row.sim_vs_exact_pct) for row in self.rows)

    def all_within_bounds(self) -> bool:
        return all(row.exact_within_bounds for row in self.rows)


def run_experiment(settings: RunSettings = STANDARD) -> ValidationResult:
    """Cross-validate all standard cases.

    The simulation horizon scales with the settings' duration so `quick`
    runs stay quick.
    """
    horizon = max(10000.0, settings.duration * 2)
    rows: List[ValidationRow] = []
    for index, case in enumerate(standard_cases()):
        exact = solve_mva(case.network, case.population)
        approx = solve_amva(case.network, case.population)
        simulated = simulate_network(
            case.network, case.population, horizon=horizon, seed=settings.base_seed + index
        )
        single_class = case.network.class_count == 1
        if single_class:
            bounds = asymptotic_bounds(case.network, sum(case.population))
            low, high = bounds.lower, bounds.upper
        else:
            low, high = -1.0, -1.0
        for k, class_name in enumerate(case.network.class_names):
            if case.population[k] == 0:
                continue
            rows.append(
                ValidationRow(
                    case=case.name,
                    class_name=class_name,
                    exact=exact.throughputs[k],
                    approximate=approx.throughputs[k],
                    simulated=simulated.throughputs[k],
                    bound_low=low if single_class else -1.0,
                    bound_high=high if single_class else -1.0,
                )
            )
    return ValidationResult(rows=tuple(rows))


def format_table(result: ValidationResult) -> str:
    table = TextTable(
        ["case", "class", "exact X", "AMVA X", "sim X", "sim err %", "in bounds"],
        title="Substrate cross-validation (throughputs)",
    )
    for row in result.rows:
        table.add_row(
            row.case,
            row.class_name,
            f"{row.exact:.4f}",
            f"{row.approximate:.4f}",
            f"{row.simulated:.4f}",
            f"{row.sim_vs_exact_pct:+.2f}",
            "yes" if row.exact_within_bounds else "NO",
        )
    return table.render()


__all__ = [
    "ValidationCase",
    "ValidationRow",
    "ValidationResult",
    "standard_cases",
    "run_experiment",
    "format_table",
]
