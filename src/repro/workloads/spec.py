"""The workload specification: what drives queries into the system.

A :class:`WorkloadSpec` pairs an arrival process with optional per-site
admission control.  It is frozen and hashable (like
:class:`repro.faults.FaultPlan`) so it can ride inside
:class:`repro.runner.RunSpec`, fold into content-addressed cache keys,
and round-trip through JSON.

The default spec — :class:`~repro.workloads.arrivals.ClosedTerminals`
with no admission control — *is* the paper's closed model, so
:func:`normalize_workload` maps it to ``None``: a run asking for the
default workload is byte-identical (cache key included) to a run that
never mentioned workloads at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.workloads.arrivals import ArrivalSpec, ClosedTerminals
from repro.workloads.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.config import SystemConfig


@dataclass(frozen=True, slots=True)
class AdmissionControl:
    """Bounded per-site admission of open-system queries.

    When a site already has ``max_pending`` admitted open queries in the
    system (queued, executing, or in transit), new arrivals at that site
    are shed: counted, reported in
    :class:`repro.model.metrics.WorkloadSummary`, and surfaced as
    :class:`repro.telemetry.events.QueryShed` events — but never
    executed.  This is what lets an open run survive offered loads past
    saturation instead of growing queues without bound.

    Attributes:
        max_pending: Admission limit per site (>= 1).
    """

    max_pending: int

    def __post_init__(self) -> None:
        if not isinstance(self.max_pending, int) or isinstance(
            self.max_pending, bool
        ):
            raise WorkloadError(
                f"max_pending must be an int, got {self.max_pending!r}"
            )
        if self.max_pending < 1:
            raise WorkloadError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """A complete workload description for one run.

    Attributes:
        arrivals: The arrival process (defaults to the paper's closed
            terminals).
        admission: Optional per-site admission control.  Only meaningful
            for open arrival processes — combining it with
            :class:`ClosedTerminals` is rejected, because closed
            terminals self-regulate and never shed.
    """

    format_version: ClassVar[int] = 1

    arrivals: ArrivalSpec = field(default_factory=ClosedTerminals)
    admission: Optional[AdmissionControl] = None

    def __post_init__(self) -> None:
        if isinstance(self.arrivals, ClosedTerminals) and (
            self.admission is not None
        ):
            raise WorkloadError(
                "admission control does not apply to closed terminals "
                "(a closed workload self-regulates and never sheds)"
            )

    @property
    def kind(self) -> str:
        """The arrival process's kind tag (``"closed"``, ``"poisson"``, ...)."""
        return self.arrivals.kind

    def is_default(self) -> bool:
        """True when this spec describes exactly the seed's closed model."""
        return isinstance(self.arrivals, ClosedTerminals) and (
            self.admission is None
        )

    def validate_for(self, config: "SystemConfig") -> None:
        """Raise :class:`WorkloadError` if *config* cannot host this spec."""
        self.arrivals.validate_for(config)


def normalize_workload(
    workload: Optional[WorkloadSpec],
) -> Optional[WorkloadSpec]:
    """Map the default closed spec to ``None``.

    Mirrors how no-op :class:`~repro.faults.FaultPlan` values normalize
    away: every layer (``RunSpec``, ``RunSettings``,
    ``ReplicationTask``, ``DistributedDatabase``) applies this, so a
    run with the explicit default workload shares cache keys — and
    byte-identical results — with a run that never set one.
    """
    if workload is None:
        return None
    if not isinstance(workload, WorkloadSpec):
        raise WorkloadError(
            f"expected a WorkloadSpec or None, got {type(workload).__name__}"
        )
    if workload.is_default():
        return None
    return workload


def estimate_site_capacity(config: "SystemConfig") -> float:
    """Rough per-site service capacity, in queries per simulated time unit.

    Uses the mean total demand (CPU + disk, whichever binds) of an
    average query under *config*.  This is a planning aid for choosing
    open arrival rates around saturation — not a queueing-theoretic
    bound — and intentionally ignores remote-execution messaging costs.
    """
    site = config.site
    cpu_demand = 0.0
    disk_demand = 0.0
    for prob, spec in zip(config.class_probs, config.classes):
        cpu_demand += prob * spec.num_reads * spec.page_cpu_time
        disk_demand += prob * spec.num_reads * site.disk_time
    disk_demand /= max(site.num_disks, 1)
    binding = max(cpu_demand, disk_demand)
    if not binding > 0 or not math.isfinite(binding):
        raise WorkloadError(
            f"cannot estimate capacity: mean binding demand is {binding}"
        )
    return 1.0 / binding


__all__ = [
    "AdmissionControl",
    "WorkloadSpec",
    "normalize_workload",
    "estimate_site_capacity",
]
