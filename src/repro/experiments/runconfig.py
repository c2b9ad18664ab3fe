"""Run-length presets for the simulation experiments.

Each experiment can run at three scales:

* ``quick`` — short runs for the benchmark harness and smoke tests;
  trends are visible but individual cells are noisy.
* ``standard`` — the default for regenerating tables interactively.
* ``paper`` — long runs with replications, used to produce the numbers
  recorded in EXPERIMENTS.md.

A :class:`RunSettings` also carries the replication count; replications use
independently derived master seeds and results are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.codec import OMIT_DEFAULT
from repro.faults.plan import FaultPlan
from repro.workloads.spec import WorkloadSpec, normalize_workload


@dataclass(frozen=True)
class RunSettings:
    """Warmup/measurement lengths and replication control for one run.

    ``faults`` optionally installs a fault plan in every run made from
    these settings (each replication executes the same plan under its own
    derived seed); ``None`` — and a no-op plan — keeps the runs faultless.
    ``workload`` optionally drives the runs with an open workload spec;
    ``None`` — and the default closed spec — keeps the paper's closed
    terminals.
    """

    warmup: float = 3000.0
    duration: float = 15000.0
    replications: int = 1
    base_seed: int = 20250705
    faults: Optional[FaultPlan] = field(default=None, metadata=OMIT_DEFAULT)
    workload: Optional[WorkloadSpec] = field(default=None, metadata=OMIT_DEFAULT)

    def __post_init__(self) -> None:
        if self.warmup < 0 or self.duration <= 0:
            raise ValueError("need warmup >= 0 and duration > 0")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.faults is not None and self.faults.is_noop:
            # Normalize: a no-op plan is the same run as no plan, and the
            # cache key must agree.
            object.__setattr__(self, "faults", None)
        # Same normalization for workloads: the default closed spec is the
        # same run as no spec, and the cache key must agree.
        object.__setattr__(self, "workload", normalize_workload(self.workload))

    def with_faults(self, faults: Optional[FaultPlan]) -> "RunSettings":
        """These settings with *faults* installed (``None`` to clear)."""
        return replace(self, faults=faults)

    def with_workload(
        self, workload: Optional[WorkloadSpec]
    ) -> "RunSettings":
        """These settings driven by *workload* (``None`` to go closed)."""
        return replace(self, workload=workload)

    def seed_for(self, replication: int) -> int:
        """Master seed of one replication (stable, well separated)."""
        return self.base_seed + 1_000_003 * replication

    def scaled(self, factor: float) -> "RunSettings":
        """Proportionally longer/shorter runs (factor > 0)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self, warmup=self.warmup * factor, duration=self.duration * factor
        )


#: Scale presets, by name.
QUICK = RunSettings(warmup=1500.0, duration=6000.0, replications=1)
STANDARD = RunSettings(warmup=3000.0, duration=15000.0, replications=1)
PAPER = RunSettings(warmup=5000.0, duration=30000.0, replications=3)

SCALES = {"quick": QUICK, "standard": STANDARD, "paper": PAPER}


def settings_for(scale: str) -> RunSettings:
    """Look up a preset by name ('quick', 'standard', 'paper')."""
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None


__all__ = ["RunSettings", "QUICK", "STANDARD", "PAPER", "SCALES", "settings_for"]
