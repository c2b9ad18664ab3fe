"""Built-in studies: the repository's ablations as committed specs.

Each builder returns a frozen :class:`~repro.ablation.spec.StudySpec`
parameterized only by run settings (and, for the legacy sweeps, their
original knobs), so the committed JSON under ``studies/`` is exactly
``build_study(name, settings_for(scale))`` — ``tools/gen_studies.py
--check`` pins that equivalence in CI.

* ``core`` — the A1–A4 component-importance study: one baseline (LERT on
  the paper's configuration) against the disk-organization toggle (A1),
  load-information staleness (A2), the MVA response-time estimator (A3),
  and the allocation-information ladder LOCAL → RANDOM → BNQ → BNQRD
  (the simulation-side counterpart of A4's tie-break question, whose
  exact tie-break comparison is analytic — see
  ``repro.analysis.improvement``).
* ``stale-info`` / ``disk-organization`` / ``update-fraction`` /
  ``heterogeneity`` / ``subnet-scaling`` — the legacy
  :mod:`repro.experiments.ablations` sweeps, re-expressed; the sweep
  functions now expand these specs instead of hand-assembling tasks.
* ``smoke`` — a seconds-long study (tiny runs; fault, stale-information
  under faults, and open-workload variants included) for CI's
  cache-determinism check.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.ablation.spec import BaselineRun, Component, StudySpec, Variant
from repro.experiments.runconfig import STANDARD, RunSettings
from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.config import DISK_SHARED, paper_defaults
from repro.workloads.arrivals import PoissonOpen
from repro.workloads.spec import AdmissionControl, WorkloadSpec


def core_study(settings: RunSettings = STANDARD) -> StudySpec:
    """The A1–A4 component-importance study (committed as studies/core.json)."""
    return StudySpec(
        name="core",
        title="Core component importance (A1-A4)",
        description=(
            "One-at-a-time ablation of the reproduction's modeling "
            "choices against the LERT baseline: disk-queue organization "
            "(A1), load-information staleness (A2), the MVA estimator "
            "(A3), and how much allocation information the policy uses "
            "(the LOCAL/RANDOM/BNQ/BNQRD ladder; A4's exact tie-break "
            "comparison is analytic and lives in repro.analysis)."
        ),
        metric="response_time",
        config=paper_defaults(),
        baseline=BaselineRun(policy="LERT"),
        settings=settings,
        components=(
            Component(
                name="disk-organization",
                description="per-disk FCFS queues vs one shared queue (A1)",
                variants=(
                    Variant(
                        name="shared-queue",
                        config_patches=(("disk_organization", DISK_SHARED),),
                    ),
                ),
            ),
            Component(
                name="load-info-staleness",
                description="periodically refreshed load snapshots (A2)",
                variants=tuple(
                    Variant(
                        name=f"refresh-{interval:g}",
                        system_kind="stale",
                        system_kwargs=(("refresh_interval", interval),),
                    )
                    for interval in (25.0, 100.0, 400.0)
                ),
            ),
            Component(
                name="estimator",
                description="heuristic LERT estimate vs exact MVA (A3)",
                variants=(Variant(name="lert-mva", policy="LERT-MVA"),),
            ),
            Component(
                name="allocation-information",
                description=(
                    "how much load information the allocator uses "
                    "(none / random / queue depth / randomized depth)"
                ),
                variants=(
                    Variant(name="local", policy="LOCAL"),
                    Variant(name="random", policy="RANDOM"),
                    Variant(name="bnq", policy="BNQ"),
                    Variant(name="bnqrd", policy="BNQRD"),
                ),
            ),
        ),
    )


def stale_info_study(
    settings: RunSettings = STANDARD,
    intervals: Tuple[float, ...] = (0.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0),
    policy: str = "LERT",
) -> StudySpec:
    """The staleness sweep: informed policy vs LOCAL as snapshots age."""
    return StudySpec(
        name="stale-info",
        title="Load-information staleness (A2)",
        description=(
            f"{policy} on periodically refreshed load snapshots, against "
            "an uninformed LOCAL baseline; the collapse interval is the "
            "first refresh interval at which staleness costs more than "
            "the information is worth."
        ),
        metric="waiting_time",
        config=paper_defaults(),
        baseline=BaselineRun(policy="LOCAL"),
        settings=settings,
        components=(
            Component(
                name="load-information",
                description="snapshot refresh interval (0 = always current)",
                variants=tuple(
                    Variant(
                        name=f"refresh-{interval:g}",
                        policy=policy,
                        system_kind="stale",
                        system_kwargs=(("refresh_interval", interval),),
                    )
                    for interval in intervals
                ),
            ),
        ),
    )


def disk_organization_study_spec(
    settings: RunSettings = STANDARD,
    policies: Tuple[str, ...] = ("LOCAL", "BNQ", "LERT"),
) -> StudySpec:
    """The A1 sweep: every policy under both disk organizations."""
    variants = []
    for policy in policies[1:]:
        variants.append(Variant(name=f"per_disk-{policy}", policy=policy))
    for policy in policies:
        variants.append(
            Variant(
                name=f"shared-{policy}",
                policy=policy,
                config_patches=(("disk_organization", DISK_SHARED),),
            )
        )
    return StudySpec(
        name="disk-organization",
        title="Disk organization (A1)",
        description=(
            "Per-disk FCFS queues (the paper's Figure 2) vs one shared "
            "multi-server disk queue, for every policy."
        ),
        metric="waiting_time",
        config=paper_defaults(),
        baseline=BaselineRun(policy=policies[0]),
        settings=settings,
        components=(
            Component(
                name="disk-organization",
                description="disk-queue organization x policy grid",
                variants=tuple(variants),
            ),
        ),
    )


def update_fraction_study(
    settings: RunSettings = STANDARD,
    fractions: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4),
) -> StudySpec:
    """The read-only-footnote sweep: update propagation vs the benefit."""
    variants = []
    for fraction in fractions:
        for policy in ("LOCAL", "LERT"):
            if fraction == fractions[0] and policy == "LOCAL":
                continue  # the baseline cell
            variants.append(
                Variant(
                    name=f"f{fraction:g}-{policy}",
                    policy=policy,
                    system_kind="updates",
                    system_kwargs=(("update_prob", fraction),),
                )
            )
    return StudySpec(
        name="update-fraction",
        title="Update fraction (read-only assumption relaxed)",
        description=(
            "LOCAL and LERT as a growing fraction of queries propagate "
            "asynchronous replica updates."
        ),
        metric="waiting_time",
        config=paper_defaults(),
        baseline=BaselineRun(
            policy="LOCAL",
            system_kind="updates",
            system_kwargs=(("update_prob", fractions[0]),),
        ),
        settings=settings,
        components=(
            Component(
                name="update-fraction",
                description="update probability x policy grid",
                variants=tuple(variants),
            ),
        ),
    )


def heterogeneity_study_spec(
    settings: RunSettings = STANDARD,
    speed_factors: Tuple[float, ...] = (0.5, 0.5, 1.0, 1.0, 2.0, 2.0),
) -> StudySpec:
    """The homogeneity-assumption sweep: policies on unequal CPUs."""
    factors = tuple(float(f) for f in speed_factors)
    return StudySpec(
        name="heterogeneity",
        title="Heterogeneous CPU speeds",
        description=(
            "Policies on a fleet with unequal CPU speeds; response time "
            "is compared because heterogeneity changes realized service "
            "times."
        ),
        metric="response_time",
        config=paper_defaults(num_sites=len(factors)),
        baseline=BaselineRun(
            policy="LOCAL",
            system_kind="heterogeneous",
            system_kwargs=(("cpu_speed_factors", factors),),
        ),
        settings=settings,
        components=(
            Component(
                name="allocation-policy",
                description="who knows about the speed difference",
                variants=(
                    Variant(name="bnq", policy="BNQ"),
                    Variant(name="lert", policy="LERT"),
                    Variant(name="lert-het", policy="LERT-HET"),
                ),
            ),
        ),
    )


def subnet_scaling_study(
    settings: RunSettings = STANDARD,
    site_counts: Tuple[int, ...] = (2, 4, 6, 8, 10),
) -> StudySpec:
    """Table 11's sweep on the shared ring vs a point-to-point mesh."""
    variants = []
    for subnet in ("ring", "mesh"):
        for num_sites in site_counts:
            for policy in ("LOCAL", "LERT"):
                if (
                    subnet == "ring"
                    and num_sites == site_counts[0]
                    and policy == "LOCAL"
                ):
                    continue  # the baseline cell
                variants.append(
                    Variant(
                        name=f"{subnet}-{num_sites}-{policy}",
                        policy=policy,
                        config_patches=(
                            ("num_sites", num_sites),
                            ("network.subnet_kind", subnet),
                        ),
                    )
                )
    return StudySpec(
        name="subnet-scaling",
        title="Subnet scaling (ring vs mesh)",
        description=(
            "Table 11's site-count sweep on the paper's shared ring and "
            "on a point-to-point mesh whose capacity grows with the "
            "fleet, separating channel congestion from the allocation "
            "benefit."
        ),
        metric="waiting_time",
        config=paper_defaults(num_sites=site_counts[0]).with_network(
            subnet_kind="ring"
        ),
        baseline=BaselineRun(policy="LOCAL"),
        settings=settings,
        components=(
            Component(
                name="subnet-scaling",
                description="subnet kind x site count x policy grid",
                variants=tuple(variants),
            ),
        ),
    )


#: Run settings of the CI smoke study: seconds, not minutes.
SMOKE_SETTINGS = RunSettings(warmup=100.0, duration=400.0, replications=1)


def smoke_study(settings: RunSettings = SMOKE_SETTINGS) -> StudySpec:
    """A seconds-long study exercising every cell flavor (CI smoke)."""
    config = paper_defaults(num_sites=3, mpl=5)
    outage = FaultPlan(site_outages=(SiteOutage(site=1, at=200.0, duration=100.0),))
    return StudySpec(
        name="smoke",
        title="CI smoke study",
        description=(
            "Tiny runs covering the policy, fault, stale-information "
            "under faults, and open-workload cell flavors; CI runs it "
            "twice through the cache and asserts the second pass is all "
            "hits with a byte-identical report."
        ),
        metric="response_time",
        config=config,
        baseline=BaselineRun(policy="LERT"),
        settings=settings,
        components=(
            Component(
                name="allocation",
                description="uninformed allocation",
                variants=(Variant(name="local", policy="LOCAL"),),
            ),
            Component(
                name="faults",
                description="one mid-run site outage",
                variants=(
                    Variant(name="site-outage", faults=outage),
                    Variant(
                        name="stale-outage",
                        system_kind="stale",
                        system_kwargs=(("refresh_interval", 50.0),),
                        faults=outage,
                    ),
                ),
            ),
            Component(
                name="workload",
                description="open Poisson arrivals with admission control",
                variants=(
                    Variant(
                        name="open-poisson",
                        workload=WorkloadSpec(
                            arrivals=PoissonOpen(rate=0.03),
                            admission=AdmissionControl(max_pending=8),
                        ),
                    ),
                ),
            ),
        ),
    )


_BUILDERS: Dict[str, Callable[[RunSettings], StudySpec]] = {
    "core": core_study,
    "stale-info": stale_info_study,
    "disk-organization": disk_organization_study_spec,
    "update-fraction": update_fraction_study,
    "heterogeneity": heterogeneity_study_spec,
    "subnet-scaling": subnet_scaling_study,
    "smoke": smoke_study,
}


def study_names() -> Tuple[str, ...]:
    """Names of the built-in studies, in catalog order."""
    return tuple(_BUILDERS)


def build_study(name: str, settings: RunSettings = STANDARD) -> StudySpec:
    """Build one built-in study at the given run settings.

    The smoke study ignores *settings* scale conventions and always uses
    its own tiny :data:`SMOKE_SETTINGS` unless explicitly overridden —
    call ``smoke_study(settings)`` directly for that.
    """
    if name == "smoke":
        return smoke_study()
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown study {name!r}; choose from {', '.join(_BUILDERS)}"
        ) from None
    return builder(settings)


__all__ = [
    "SMOKE_SETTINGS",
    "core_study",
    "stale_info_study",
    "disk_organization_study_spec",
    "update_fraction_study",
    "heterogeneity_study_spec",
    "subnet_scaling_study",
    "smoke_study",
    "build_study",
    "study_names",
]
