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
through JSON (:func:`study_spec_to_dict` / :func:`study_spec_from_dict`,
:func:`save_study_spec` / :func:`load_study_spec`) — the committed specs
under ``studies/`` are exactly this format.  This module is therefore in
reprolint's serialized-dataclass scope: every field of these dataclasses
must appear as a string literal below, so a new field cannot silently
stay out of the on-disk format.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.experiments.parallel import check_system
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import FaultPlan
from repro.model.config import SystemConfig, set_config_parameter
from repro.model.serialization import (
    config_from_dict,
    config_to_dict,
    fault_plan_from_dict,
    fault_plan_to_dict,
    workload_spec_from_dict,
    workload_spec_to_dict,
)
from repro.workloads.spec import WorkloadSpec

#: Version tag of the serialized study-spec format.
STUDY_FORMAT_VERSION = 1

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


def _freeze(value: Any) -> Any:
    """Recursively turn lists into tuples (JSON round-trip normalization)."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, tuple):
        return tuple(_freeze(item) for item in value)
    return value


def _frozen_pairs(pairs: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalize ``(name, value)`` pair sequences to a hashable tuple."""
    return tuple((str(name), _freeze(value)) for name, value in pairs)


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

    Unset fields (``None`` / empty) inherit the baseline; set fields
    override it.  ``system_kind`` and ``system_kwargs`` override
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
    policy: Optional[str] = None
    system_kind: Optional[str] = None
    system_kwargs: Tuple[Tuple[str, Any], ...] = field(default=())
    config_patches: Tuple[Tuple[str, Any], ...] = field(default=())
    faults: Optional[FaultPlan] = None
    workload: Optional[WorkloadSpec] = None

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


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------


def _pairs_to_json(pairs: Tuple[Tuple[str, Any], ...]) -> list:
    return [[name, _unfreeze(value)] for name, value in pairs]


def _unfreeze(value: Any) -> Any:
    """Tuples back to lists so ``json.dump`` accepts the tree."""
    if isinstance(value, tuple):
        return [_unfreeze(item) for item in value]
    return value


def _baseline_to_dict(baseline: BaselineRun) -> Dict[str, Any]:
    return {
        "policy": baseline.policy,
        "system_kind": baseline.system_kind,
        "system_kwargs": _pairs_to_json(baseline.system_kwargs),
    }


def _baseline_from_dict(data: Dict[str, Any]) -> BaselineRun:
    return BaselineRun(
        policy=data["policy"],
        system_kind=data.get("system_kind", "standard"),
        system_kwargs=_frozen_pairs(data.get("system_kwargs", ())),
    )


def _variant_to_dict(variant: Variant) -> Dict[str, Any]:
    data: Dict[str, Any] = {"name": variant.name}
    if variant.policy is not None:
        data["policy"] = variant.policy
    if variant.system_kind is not None:
        data["system_kind"] = variant.system_kind
        data["system_kwargs"] = _pairs_to_json(variant.system_kwargs)
    if variant.config_patches:
        data["config_patches"] = _pairs_to_json(variant.config_patches)
    if variant.faults is not None:
        data["faults"] = fault_plan_to_dict(variant.faults)
    if variant.workload is not None:
        data["workload"] = workload_spec_to_dict(variant.workload)
    return data


def _variant_from_dict(data: Dict[str, Any]) -> Variant:
    faults = data.get("faults")
    workload = data.get("workload")
    return Variant(
        name=data["name"],
        policy=data.get("policy"),
        system_kind=data.get("system_kind"),
        system_kwargs=_frozen_pairs(data.get("system_kwargs", ())),
        config_patches=_frozen_pairs(data.get("config_patches", ())),
        faults=None if faults is None else fault_plan_from_dict(faults),
        workload=None if workload is None else workload_spec_from_dict(workload),
    )


def _component_to_dict(component: Component) -> Dict[str, Any]:
    return {
        "name": component.name,
        "description": component.description,
        "variants": [_variant_to_dict(v) for v in component.variants],
    }


def _component_from_dict(data: Dict[str, Any]) -> Component:
    return Component(
        name=data["name"],
        description=data.get("description", ""),
        variants=tuple(_variant_from_dict(v) for v in data["variants"]),
    )


def _settings_to_dict(settings: RunSettings) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "warmup": settings.warmup,
        "duration": settings.duration,
        "replications": settings.replications,
        "base_seed": settings.base_seed,
    }
    if settings.faults is not None:
        data["faults"] = fault_plan_to_dict(settings.faults)
    if settings.workload is not None:
        data["workload"] = workload_spec_to_dict(settings.workload)
    return data


def _settings_from_dict(data: Dict[str, Any]) -> RunSettings:
    faults = data.get("faults")
    workload = data.get("workload")
    return RunSettings(
        warmup=data["warmup"],
        duration=data["duration"],
        replications=data["replications"],
        base_seed=data["base_seed"],
        faults=None if faults is None else fault_plan_from_dict(faults),
        workload=None if workload is None else workload_spec_from_dict(workload),
    )


def study_spec_to_dict(spec: StudySpec) -> Dict[str, Any]:
    """Flatten a :class:`StudySpec` into JSON-compatible primitives."""
    return {
        "format_version": STUDY_FORMAT_VERSION,
        "name": spec.name,
        "title": spec.title,
        "description": spec.description,
        "metric": spec.metric,
        "config": config_to_dict(spec.config),
        "baseline": _baseline_to_dict(spec.baseline),
        "settings": _settings_to_dict(spec.settings),
        "components": [_component_to_dict(c) for c in spec.components],
    }


def study_spec_from_dict(data: Dict[str, Any]) -> StudySpec:
    """Rebuild a :class:`StudySpec` from :func:`study_spec_to_dict` output."""
    version = data.get("format_version", STUDY_FORMAT_VERSION)
    if version != STUDY_FORMAT_VERSION:
        raise ValueError(
            f"unsupported study format_version {version!r} "
            f"(this build reads {STUDY_FORMAT_VERSION})"
        )
    return StudySpec(
        name=data["name"],
        title=data.get("title", data["name"]),
        description=data.get("description", ""),
        metric=data["metric"],
        config=config_from_dict(data["config"]),
        baseline=_baseline_from_dict(data["baseline"]),
        settings=_settings_from_dict(data["settings"]),
        components=tuple(_component_from_dict(c) for c in data["components"]),
    )


def save_study_spec(
    spec: StudySpec, path: Union[str, pathlib.Path]
) -> None:
    """Write a study spec as pretty-printed JSON (stable key order)."""
    text = json.dumps(study_spec_to_dict(spec), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(text + "\n", encoding="utf-8")


def load_study_spec(path: Union[str, pathlib.Path]) -> StudySpec:
    """Read a study spec written by :func:`save_study_spec`."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return study_spec_from_dict(data)


__all__ = [
    "STUDY_FORMAT_VERSION",
    "STUDY_METRICS",
    "STUDY_METRIC_ATTRIBUTES",
    "BaselineRun",
    "Variant",
    "Component",
    "StudySpec",
    "study_spec_to_dict",
    "study_spec_from_dict",
    "save_study_spec",
    "load_study_spec",
]
