"""Shared machinery for the table-reproduction experiments.

Provides:

* :func:`simulate` — run one (config, policy) pair at given settings,
  averaging over replications with common random numbers; ``jobs=`` fans
  replications over a process pool and ``cache=`` reuses cached results
  (see :mod:`repro.experiments.parallel` / :mod:`repro.experiments.cache`);
* :func:`policy_grid` — the cells of a paper table: every policy on every
  config, as one batch, one ``{policy: AveragedResults}`` dict per config;
* :class:`PolicyComparison` — the W̄ comparisons a table row derives
  from its per-policy results;
* :func:`average_results` — order-independent replication averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.experiments.context import StudyContext
from repro.experiments.parallel import replication_tasks, simulate_many
from repro.experiments.report import improvement_pct
from repro.experiments.runconfig import RunSettings
from repro.model.config import SystemConfig
from repro.model.metrics import SystemResults


@dataclass(frozen=True)
class AveragedResults:
    """Replication-averaged run results for one (config, policy) pair."""

    format_version: ClassVar[int] = 1

    policy: str
    mean_waiting_time: float
    mean_response_time: float
    fairness: Optional[float]
    subnet_utilization: float
    cpu_utilization: float
    disk_utilization: float
    remote_fraction: float
    completions: int
    per_replication: Tuple[SystemResults, ...]

    @property
    def rho_ratio(self) -> float:
        """ρ_d / ρ_c — measured disk-to-CPU utilization ratio (Table 12).

        ``nan`` when both utilizations are zero (an idle system has no
        meaningful ratio); ``inf`` when only the CPU was idle.
        """
        if self.cpu_utilization == 0:
            if self.disk_utilization == 0:
                return float("nan")
            return float("inf")
        return self.disk_utilization / self.cpu_utilization

    @property
    def availability(self) -> float:
        """Fraction of attempted queries that completed rather than being
        lost to site failures: ``completions / (completions + lost)``.

        1.0 for fault-free runs.
        """
        # Integer totals: int sums are exact, hence permutation invariant.
        lost = sum(  # reprolint: disable=RL004
            run.availability.queries_lost
            for run in self.per_replication
            if run.availability is not None
        )
        attempted = self.completions + lost
        return 1.0 if attempted == 0 else self.completions / attempted

    @property
    def shed_rate(self) -> float:
        """Fraction of offered arrivals dropped by admission control:
        ``shed / offered``.

        0.0 for closed-workload runs.
        """
        offered = sum(  # reprolint: disable=RL004
            run.workload.offered
            for run in self.per_replication
            if run.workload is not None
        )
        shed = sum(  # reprolint: disable=RL004
            run.workload.shed
            for run in self.per_replication
            if run.workload is not None
        )
        return 0.0 if offered == 0 else shed / offered


def average_results(
    policy_name: str, runs: Sequence[SystemResults]
) -> AveragedResults:
    """Average per-replication results into one :class:`AveragedResults`.

    Uses :func:`math.fsum` (exactly rounded), so the averages are invariant
    under permutation of *runs* — parallel execution can reassemble
    replications in any order and still reproduce the serial numbers bit
    for bit.  ``per_replication`` preserves the order given.
    """
    if not runs:
        raise ValueError("need at least one replication to average")

    def avg(values: Sequence[float]) -> float:
        return math.fsum(values) / len(values)

    fairness_values = [r.fairness for r in runs if r.fairness is not None]
    return AveragedResults(
        policy=policy_name,
        mean_waiting_time=avg([r.mean_waiting_time for r in runs]),
        mean_response_time=avg([r.mean_response_time for r in runs]),
        fairness=avg(fairness_values) if fairness_values else None,
        subnet_utilization=avg([r.subnet_utilization for r in runs]),
        cpu_utilization=avg([r.cpu_utilization for r in runs]),
        disk_utilization=avg([r.disk_utilization for r in runs]),
        remote_fraction=avg([r.remote_fraction for r in runs]),
        # Integer count: int sum() is exact, hence permutation invariant.
        completions=sum(r.completions for r in runs),  # reprolint: disable=RL004
        per_replication=tuple(runs),
    )


def simulate(
    config: SystemConfig,
    policy_name: str,
    settings: RunSettings,
    *,
    jobs: Optional[int] = 1,
    cache=None,
    progress=None,
) -> AveragedResults:
    """Run the system under one policy, averaged over replications.

    Replication ``r`` of every policy uses the same master seed, so all
    policies face an identical stream of queries (common random numbers).

    Args:
        config: System description.
        policy_name: Registered allocation policy to run.
        settings: Run lengths, replication count, and base seed.
        jobs: Worker processes for the replications (default 1 = serial,
            in-process; 0 or negative = all cores).  Results are identical
            regardless of the value.
        cache: Optional :class:`~repro.experiments.cache.ResultCache`;
            cached replications are reused instead of re-simulated.
        progress: Optional per-replication progress callback (see
            :class:`~repro.experiments.parallel.RunProgress`).  Defaults to
            the callback installed by
            :func:`~repro.experiments.parallel.progress_reporting`, if any.
            Display only; results are unaffected.
    """
    context = StudyContext(
        jobs=1 if jobs is None else jobs, cache=cache, progress=progress
    )
    (averaged,) = simulate_many(
        [replication_tasks(config, policy_name, settings)], context=context
    )
    return averaged


def policy_grid(
    configs: Sequence[SystemConfig],
    policies: Sequence[str],
    settings: RunSettings,
    context: StudyContext = StudyContext(),
) -> List[Dict[str, AveragedResults]]:
    """Every policy on every config, one ``{policy: results}`` per config.

    All cells run as one batch under *context*, config-major, and policy
    *p* of every config uses the same seeds (common random numbers).
    """
    cells = [
        replication_tasks(config, policy, settings)
        for config in configs
        for policy in policies
    ]
    averaged = iter(simulate_many(cells, context=context))
    # zip stops at the end of *policies* before drawing from *averaged*,
    # so each dict takes exactly one config's cells.
    return [dict(zip(policies, averaged)) for _ in configs]


class PolicyComparison:
    """W̄ comparisons of a table row holding ``results: {policy: ...}``.

    A mixin without fields: each row dataclass keeps its own key field
    (``think_time``, ``mpl``, ...) and its ``results`` dict.
    """

    results: Dict[str, AveragedResults]

    @property
    def rho_c(self) -> float:
        """CPU utilization under LOCAL."""
        return self.results["LOCAL"].cpu_utilization

    @property
    def w_local(self) -> float:
        """Mean waiting time under LOCAL."""
        return self.results["LOCAL"].mean_waiting_time

    def vs_local(self, policy: str) -> float:
        """*policy*'s W̄ improvement over LOCAL, in percent."""
        return improvement_pct(self.results[policy].mean_waiting_time, self.w_local)

    def vs_bnq(self, policy: str) -> float:
        """*policy*'s W̄ improvement over BNQ, in percent."""
        return improvement_pct(
            self.results[policy].mean_waiting_time,
            self.results["BNQ"].mean_waiting_time,
        )


__all__ = [
    "AveragedResults",
    "PolicyComparison",
    "average_results",
    "policy_grid",
    "simulate",
]
