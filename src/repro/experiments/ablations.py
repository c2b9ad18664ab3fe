"""Ablation experiments (DESIGN.md A1–A4) and extension studies.

These go beyond the paper's tables: each quantifies one modeling choice or
relaxes one of the paper's assumptions.

* :func:`stale_info_sweep` — value of load-information freshness (A2).
* :func:`disk_organization_study` — per-disk queues vs shared queue (A1).
* :func:`update_fraction_sweep` — read-only assumption relaxed (footnote).
* :func:`heterogeneity_study` — homogeneity assumption relaxed.
* The LERT-vs-LERT-MVA comparison (A3) and tie-break study (A4) live in
  the benchmark suite since they are single-shot comparisons.

Since the declarative study harness landed (:mod:`repro.ablation`), these
sweeps no longer assemble their own task lists: each expands the matching
catalog :class:`~repro.ablation.spec.StudySpec` and reads its cells, so
the sweep, the committed spec under ``studies/``, and ``repro-experiments
study`` all run the *same* content-addressed cells.  The result
dataclasses and ``format_*`` renderers are unchanged.

Each sweep runs one replication per cell (the behavior these functions
always had): ``settings.replications`` is overridden to 1, and the
shared seed ``settings.seed_for(0)`` gives every cell common random
numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import TextTable, improvement_pct
from repro.experiments.context import StudyContext
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.model.config import DISK_PER_DISK, DISK_SHARED


def _single_replication(settings: RunSettings) -> RunSettings:
    """These sweeps always ran one replication per cell; keep that."""
    return dataclasses.replace(settings, replications=1)


# ----------------------------------------------------------------------
# A2: load-information staleness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StaleInfoResult:
    intervals: Tuple[float, ...]
    waits: Dict[float, float]
    w_local: float

    def collapse_interval(self) -> float:
        """First swept interval at which LERT falls behind LOCAL."""
        for interval in self.intervals:
            if self.waits[interval] > self.w_local:
                return interval
        return float("inf")


def stale_info_sweep(
    settings: RunSettings = STANDARD,
    intervals: Tuple[float, ...] = (0.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0),
    policy: str = "LERT",
    *,
    context: StudyContext = StudyContext(),
) -> StaleInfoResult:
    """LERT's waiting time as load snapshots go stale."""
    # Imported lazily: the experiments package imports this module, and
    # the study harness imports the experiments backend (cycle otherwise).
    from repro.ablation.catalog import stale_info_study as _stale_spec
    from repro.ablation.study import run_study

    spec = _stale_spec(
        _single_replication(settings), intervals=tuple(intervals), policy=policy
    )
    outcome = run_study(spec, context=context)
    waits: Dict[float, float] = {
        interval: outcome.cell(
            f"load-information:refresh-{interval:g}"
        ).metrics.waiting_time
        for interval in intervals
    }
    return StaleInfoResult(
        intervals=tuple(intervals),
        waits=waits,
        w_local=outcome.baseline.metrics.waiting_time,
    )


def format_stale_info(result: StaleInfoResult) -> str:
    table = TextTable(
        ["refresh interval", "W", "vs LOCAL %"],
        title=f"Load-information staleness (W_LOCAL = {result.w_local:.2f})",
    )
    for interval in result.intervals:
        w = result.waits[interval]
        table.add_row(
            "always current" if interval == 0 else f"{interval:.0f}",
            f"{w:.2f}",
            f"{improvement_pct(w, result.w_local):.1f}",
        )
    return table.render()


# ----------------------------------------------------------------------
# A1: disk organization
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiskOrganizationResult:
    waits: Dict[Tuple[str, str], float]  # (organization, policy) -> W

    def shared_advantage(self, policy: str) -> float:
        """Percent W reduction from pooling the disk queue."""
        return improvement_pct(
            self.waits[(DISK_SHARED, policy)], self.waits[(DISK_PER_DISK, policy)]
        )


def disk_organization_study(
    settings: RunSettings = STANDARD,
    policies: Tuple[str, ...] = ("LOCAL", "BNQ", "LERT"),
    *,
    context: StudyContext = StudyContext(),
) -> DiskOrganizationResult:
    """Per-disk queues (paper's Figure 2) vs one shared multi-server queue."""
    from repro.ablation.catalog import disk_organization_study_spec as _disk_spec
    from repro.ablation.study import run_study

    spec = _disk_spec(_single_replication(settings), policies=tuple(policies))
    outcome = run_study(spec, context=context)
    waits: Dict[Tuple[str, str], float] = {
        (DISK_PER_DISK, policies[0]): outcome.baseline.metrics.waiting_time
    }
    for policy in policies[1:]:
        waits[(DISK_PER_DISK, policy)] = outcome.cell(
            f"disk-organization:per_disk-{policy}"
        ).metrics.waiting_time
    for policy in policies:
        waits[(DISK_SHARED, policy)] = outcome.cell(
            f"disk-organization:shared-{policy}"
        ).metrics.waiting_time
    return DiskOrganizationResult(waits=waits)


def format_disk_organization(result: DiskOrganizationResult) -> str:
    policies = sorted({policy for _, policy in result.waits})
    table = TextTable(
        ["policy", "per-disk W", "shared W", "shared advantage %"],
        title="Disk organization ablation",
    )
    for policy in policies:
        table.add_row(
            policy,
            f"{result.waits[(DISK_PER_DISK, policy)]:.2f}",
            f"{result.waits[(DISK_SHARED, policy)]:.2f}",
            f"{result.shared_advantage(policy):.1f}",
        )
    return table.render()


# ----------------------------------------------------------------------
# Read-only footnote: update fraction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UpdateFractionResult:
    fractions: Tuple[float, ...]
    rows: Dict[float, Dict[str, float]]  # fraction -> policy -> W
    subnet: Dict[float, float]

    def lert_improvement(self, fraction: float) -> float:
        row = self.rows[fraction]
        return improvement_pct(row["LERT"], row["LOCAL"])


def update_fraction_sweep(
    settings: RunSettings = STANDARD,
    fractions: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4),
    *,
    context: StudyContext = StudyContext(),
) -> UpdateFractionResult:
    """How update propagation load dilutes the allocation benefit."""
    from repro.ablation.catalog import update_fraction_study as _update_spec
    from repro.ablation.study import run_study

    spec = _update_spec(_single_replication(settings), fractions=tuple(fractions))
    outcome = run_study(spec, context=context)
    rows: Dict[float, Dict[str, float]] = {}
    subnet: Dict[float, float] = {}
    for fraction in fractions:
        row: Dict[str, float] = {}
        for policy in ("LOCAL", "LERT"):
            if fraction == fractions[0] and policy == "LOCAL":
                cell = outcome.baseline
            else:
                cell = outcome.cell(f"update-fraction:f{fraction:g}-{policy}")
            row[policy] = cell.metrics.waiting_time
            if policy == "LERT":
                subnet[fraction] = cell.metrics.subnet_utilization
        rows[fraction] = row
    return UpdateFractionResult(
        fractions=tuple(fractions), rows=rows, subnet=subnet
    )


def format_update_fraction(result: UpdateFractionResult) -> str:
    table = TextTable(
        ["update %", "W LOCAL", "W LERT", "dLERT %", "subnet %"],
        title="Update-fraction sweep (asynchronous replica propagation)",
    )
    for fraction in result.fractions:
        row = result.rows[fraction]
        table.add_row(
            f"{100 * fraction:.0f}",
            f"{row['LOCAL']:.2f}",
            f"{row['LERT']:.2f}",
            f"{result.lert_improvement(fraction):.1f}",
            f"{100 * result.subnet[fraction]:.1f}",
        )
    return table.render()


# ----------------------------------------------------------------------
# Homogeneity assumption: heterogeneous CPU speeds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HeterogeneityResult:
    speed_factors: Tuple[float, ...]
    response_times: Dict[str, float]  # policy -> mean response time

    def informed_advantage(self) -> float:
        """LERT-HET's response-time advantage over LOCAL, percent."""
        return improvement_pct(
            self.response_times["LERT-HET"], self.response_times["LOCAL"]
        )


def heterogeneity_study(
    settings: RunSettings = STANDARD,
    speed_factors: Tuple[float, ...] = (0.5, 0.5, 1.0, 1.0, 2.0, 2.0),
    *,
    context: StudyContext = StudyContext(),
) -> HeterogeneityResult:
    """Policies on a fleet with unequal CPU speeds.

    Response time (not waiting time) is compared: heterogeneity changes
    realized service times, so waiting alone under-credits fast sites.
    """
    from repro.ablation.catalog import heterogeneity_study_spec as _heterogeneity_spec
    from repro.ablation.study import run_study

    factors = tuple(float(f) for f in speed_factors)
    spec = _heterogeneity_spec(
        _single_replication(settings), speed_factors=factors
    )
    outcome = run_study(spec, context=context)
    response_times: Dict[str, float] = {
        "LOCAL": outcome.baseline.metrics.response_time,
        "BNQ": outcome.cell("allocation-policy:bnq").metrics.response_time,
        "LERT": outcome.cell("allocation-policy:lert").metrics.response_time,
        "LERT-HET": outcome.cell(
            "allocation-policy:lert-het"
        ).metrics.response_time,
    }
    return HeterogeneityResult(
        speed_factors=factors, response_times=response_times
    )


def format_heterogeneity(result: HeterogeneityResult) -> str:
    table = TextTable(
        ["policy", "mean response time", "vs LOCAL %"],
        title=f"Heterogeneous CPU speeds {result.speed_factors}",
    )
    base = result.response_times["LOCAL"]
    for policy in ("LOCAL", "BNQ", "LERT", "LERT-HET"):
        rt = result.response_times[policy]
        table.add_row(policy, f"{rt:.2f}", f"{improvement_pct(rt, base):.1f}")
    return table.render()


# ----------------------------------------------------------------------
# Subnet topology: is the shared channel really what caps Table 11?
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SubnetScalingResult:
    site_counts: Tuple[int, ...]
    improvements: Dict[Tuple[str, int], float]  # (subnet, sites) -> dLERT%
    subnet_utilization: Dict[Tuple[str, int], float]

    def peak_sites(self, subnet: str) -> int:
        return max(
            self.site_counts, key=lambda n: self.improvements[(subnet, n)]
        )


def subnet_scaling_study(
    settings: RunSettings = STANDARD,
    site_counts: Tuple[int, ...] = (2, 4, 6, 8, 10),
    *,
    context: StudyContext = StudyContext(),
) -> SubnetScalingResult:
    """Table 11's sweep on the ring versus a point-to-point mesh.

    The paper attributes the interior optimum in the number of sites to
    channel congestion.  On a mesh whose aggregate capacity grows with
    S·(S−1), the congestion term vanishes — the improvement curve should
    keep rising (or flatten) instead of turning down.
    """
    from repro.ablation.catalog import subnet_scaling_study as _subnet_spec
    from repro.ablation.study import run_study

    counts = tuple(site_counts)
    spec = _subnet_spec(_single_replication(settings), site_counts=counts)
    outcome = run_study(spec, context=context)
    improvements: Dict[Tuple[str, int], float] = {}
    utilization: Dict[Tuple[str, int], float] = {}
    for subnet in ("ring", "mesh"):
        for num_sites in counts:
            if subnet == "ring" and num_sites == counts[0]:
                local = outcome.baseline
            else:
                local = outcome.cell(
                    f"subnet-scaling:{subnet}-{num_sites}-LOCAL"
                )
            lert = outcome.cell(f"subnet-scaling:{subnet}-{num_sites}-LERT")
            improvements[(subnet, num_sites)] = improvement_pct(
                lert.metrics.waiting_time, local.metrics.waiting_time
            )
            utilization[(subnet, num_sites)] = lert.metrics.subnet_utilization
    return SubnetScalingResult(
        site_counts=counts,
        improvements=improvements,
        subnet_utilization=utilization,
    )


def format_subnet_scaling(result: SubnetScalingResult) -> str:
    table = TextTable(
        ["sites", "ring dLERT%", "ring util%", "mesh dLERT%", "mesh util%"],
        title="Subnet scaling: shared ring vs point-to-point mesh",
    )
    for n in result.site_counts:
        table.add_row(
            str(n),
            f"{result.improvements[('ring', n)]:.1f}",
            f"{100 * result.subnet_utilization[('ring', n)]:.1f}",
            f"{result.improvements[('mesh', n)]:.1f}",
            f"{100 * result.subnet_utilization[('mesh', n)]:.1f}",
        )
    return table.render()


__all__ = [
    "StaleInfoResult",
    "stale_info_sweep",
    "format_stale_info",
    "DiskOrganizationResult",
    "disk_organization_study",
    "format_disk_organization",
    "UpdateFractionResult",
    "update_fraction_sweep",
    "format_update_fraction",
    "HeterogeneityResult",
    "heterogeneity_study",
    "format_heterogeneity",
    "SubnetScalingResult",
    "subnet_scaling_study",
    "format_subnet_scaling",
]
