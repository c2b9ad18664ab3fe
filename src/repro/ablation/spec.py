"""Study specifications: the frozen, serializable *what* of an ablation.

A :class:`StudySpec` is a baseline run plus components:

* :class:`BaselineRun` — the reference point: a system config, a policy,
  and (for the relaxed-assumption mechanisms) a system kind with its
  parameters.
* :class:`Variant` — one alternative setting of a component, expressed
  as a *delta* against the baseline: an optional policy override,
  optional system-kind override, dotted-path config patches (see
  :func:`~repro.model.config.set_config_parameter`), and optional
  fault-plan / workload overrides.
* :class:`Component` — a named dimension with one or more variants; the
  study runs each variant with every *other* component at baseline
  (one-at-a-time ablation).
* :class:`StudySpec` — name, title, primary metric, baseline,
  components, and the :class:`~repro.experiments.runconfig.RunSettings`
  that give every cell its CRN-paired replication seeds.

Everything is frozen and validated at construction, and round-trips
through JSON with :mod:`repro.codec` (``save(spec, path)`` /
``load(StudySpec, path)``) — the committed specs under ``studies/`` are
exactly this format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.codec import OMIT_DEFAULT, freeze
from repro.experiments.parallel import check_system
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import FaultPlan
from repro.model.config import SystemConfig, set_config_parameter
from repro.workloads.spec import WorkloadSpec

#: Each metric a study may rank by, and the
#: :class:`~repro.experiments.common.AveragedResults` attribute that holds
#: it (the report shows all of them).
STUDY_METRIC_ATTRIBUTES: Dict[str, str] = {
    "response_time": "mean_response_time",
    "waiting_time": "mean_waiting_time",
    "fairness": "fairness",
    "availability": "availability",
    "shed_rate": "shed_rate",
}

#: Metrics a study may rank by.
STUDY_METRICS = tuple(STUDY_METRIC_ATTRIBUTES)


def _frozen_pairs(pairs: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalize ``(name, value)`` pair sequences to a hashable tuple."""
    return tuple((str(name), freeze(value)) for name, value in pairs)


@dataclass(frozen=True)
class BaselineRun:
    """The study's reference run (everything a variant deltas against).

    Attributes:
        policy: Registered allocation policy of the baseline.
        system_kind: Which mechanisms the system switches on (a key of
            :data:`~repro.experiments.parallel.SYSTEM_KINDS`).
        system_kwargs: The kind's mechanism parameters, as sorted
            ``(name, value)`` pairs.
    """

    policy: str
    system_kind: str = "standard"
    system_kwargs: Tuple[Tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "system_kwargs", tuple(sorted(_frozen_pairs(self.system_kwargs)))
        )
        check_system(self.system_kind, self.system_kwargs)


@dataclass(frozen=True)
class Variant:
    """One alternative setting of a component, as a delta vs baseline.

    Unset fields (``None`` / empty) inherit the baseline, set fields
    override it, and only set fields are serialized.  ``system_kind`` and ``system_kwargs`` override
    *together*: naming a kind replaces both the baseline kind and its
    kwargs.

    Attributes:
        name: Variant name, unique within its component.
        policy: Optional policy override.
        system_kind: Optional system-kind override.
        system_kwargs: Constructor kwargs of the overriding kind
            (ignored unless ``system_kind`` is set).
        config_patches: ``(dotted_path, value)`` pairs applied to the
            baseline config in order (see
            :func:`~repro.model.config.set_config_parameter`).
        faults: Optional fault-plan override for this variant's runs.
        workload: Optional workload override for this variant's runs.
    """

    name: str
    policy: Optional[str] = field(default=None, metadata=OMIT_DEFAULT)
    system_kind: Optional[str] = field(default=None, metadata=OMIT_DEFAULT)
    system_kwargs: Tuple[Tuple[str, Any], ...] = field(default=(), metadata=OMIT_DEFAULT)
    config_patches: Tuple[Tuple[str, Any], ...] = field(default=(), metadata=OMIT_DEFAULT)
    faults: Optional[FaultPlan] = field(default=None, metadata=OMIT_DEFAULT)
    workload: Optional[WorkloadSpec] = field(default=None, metadata=OMIT_DEFAULT)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a variant needs a non-empty name")
        if self.system_kwargs and self.system_kind is None:
            raise ValueError(
                f"variant {self.name!r} sets system_kwargs without "
                "system_kind; kwargs only apply with an overriding kind"
            )
        object.__setattr__(
            self, "system_kwargs", tuple(sorted(_frozen_pairs(self.system_kwargs)))
        )
        if self.system_kind is not None:
            check_system(self.system_kind, self.system_kwargs, self.faults)
        object.__setattr__(
            self, "config_patches", _frozen_pairs(self.config_patches)
        )
        if (
            self.policy is None
            and self.system_kind is None
            and not self.config_patches
            and self.faults is None
            and self.workload is None
        ):
            raise ValueError(
                f"variant {self.name!r} is identical to the baseline; "
                "give it at least one override"
            )


@dataclass(frozen=True)
class Component:
    """One ablated dimension: a name and its alternative settings."""

    name: str
    description: str
    variants: Tuple[Variant, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a component needs a non-empty name")
        if not self.variants:
            raise ValueError(
                f"component {self.name!r} needs at least one variant"
            )
        object.__setattr__(self, "variants", tuple(self.variants))
        names = [variant.name for variant in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(
                f"component {self.name!r} has duplicate variant names"
            )


@dataclass(frozen=True)
class StudySpec:
    """A complete, frozen ablation study.

    Attributes:
        name: Study identifier (file stem of the committed spec).
        title: Human heading used by the report.
        description: One-paragraph summary of what the study probes.
        metric: Primary metric the importance ranking sorts by (one of
            :data:`STUDY_METRICS`); the report still shows every metric.
        config: Baseline system configuration.
        baseline: Baseline policy / system kind (see :class:`BaselineRun`).
        settings: Run lengths, replication count, base seed, and the
            study-wide fault plan / workload (variant overrides win).
        components: The ablated dimensions.
    """

    format_version: ClassVar[int] = 1

    name: str
    title: str
    description: str
    metric: str
    config: SystemConfig
    baseline: BaselineRun
    settings: RunSettings
    components: Tuple[Component, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a study needs a non-empty name")
        if self.metric not in STUDY_METRICS:
            raise ValueError(
                f"unknown study metric {self.metric!r}; "
                f"expected one of {STUDY_METRICS}"
            )
        if not self.components:
            raise ValueError("a study needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        names = [component.name for component in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"study {self.name!r} has duplicate component names")
        # Fail fast on patch typos before burning simulation time: every
        # variant's patches must apply cleanly to the baseline config.
        for component in self.components:
            for variant in component.variants:
                config = self.config
                for dotted_path, value in variant.config_patches:
                    config = set_config_parameter(config, dotted_path, value)

    def component(self, name: str) -> Component:
        """Look up one component by name."""
        for candidate in self.components:
            if candidate.name == name:
                return candidate
        raise KeyError(f"study {self.name!r} has no component {name!r}")


__all__ = [
    "STUDY_METRICS",
    "STUDY_METRIC_ATTRIBUTES",
    "BaselineRun",
    "Variant",
    "Component",
    "StudySpec",
]
