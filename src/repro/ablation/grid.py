"""Deterministic expansion of a study spec into content-addressed runs.

:func:`expand` turns a :class:`~repro.ablation.spec.StudySpec` into a
:class:`StudyGrid`: one :class:`StudyCell` for the baseline plus one per
(component, variant), each holding the cell's
:class:`~repro.experiments.parallel.ReplicationTask` list — the same
task objects the parallel runner executes, so each cell's *run IDs* are
exactly the tasks' content-addressed cache keys
(:meth:`~repro.experiments.parallel.ReplicationTask.key`).  Two
consequences:

* Expansion is a pure function of the spec: the grid — including every
  run ID — is byte-identical across processes and machines (the golden
  snapshot test pins this).
* The result cache dedupes across studies for free: any cell whose
  (config, policy, seed, ...) matches a previous run, in *any* study or
  table experiment, is answered from cache.

Replication ``r`` of every cell uses ``settings.seed_for(r)``, so all
variants face an identical query stream (common random numbers) and the
report's deltas are CRN-paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.ablation.spec import Component, StudySpec, Variant
from repro.experiments.parallel import ReplicationTask, replication_tasks
from repro.model.config import set_config_parameter

#: Label of the baseline cell (component/variant labels are
#: ``"<component>:<variant>"``, which cannot collide with this).
BASELINE_LABEL = "baseline"


@dataclass(frozen=True)
class StudyCell:
    """One grid cell: a labelled run with its replication tasks.

    Attributes:
        label: ``"baseline"`` or ``"<component>:<variant>"``.
        component: Owning component name (``None`` for the baseline).
        variant: Variant name (``None`` for the baseline).
        tasks: One :class:`~repro.experiments.parallel.ReplicationTask`
            per replication, in replication order.
    """

    label: str
    component: Optional[str]
    variant: Optional[str]
    tasks: Tuple[ReplicationTask, ...]

    @property
    def run_ids(self) -> Tuple[str, ...]:
        """Content-addressed run IDs, one per replication."""
        return tuple(task.key() for task in self.tasks)


@dataclass(frozen=True)
class StudyGrid:
    """The full expansion of one study."""

    spec: StudySpec
    baseline: StudyCell
    cells: Tuple[StudyCell, ...]

    def all_cells(self) -> Tuple[StudyCell, ...]:
        """Baseline first, then every variant cell in spec order."""
        return (self.baseline,) + self.cells

    def all_tasks(self) -> List[ReplicationTask]:
        """Every task of the grid, in cell order (runner input)."""
        return [task for cell in self.all_cells() for task in cell.tasks]

    def cell(self, label: str) -> StudyCell:
        """Look up one cell by label (including ``"baseline"``)."""
        for candidate in self.all_cells():
            if candidate.label == label:
                return candidate
        raise KeyError(f"study {self.spec.name!r} has no cell {label!r}")

    def run_ids(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """``(label, run IDs)`` for every cell — the snapshot surface."""
        return tuple(
            (cell.label, cell.run_ids) for cell in self.all_cells()
        )


def _cell_tasks(
    spec: StudySpec, variant: Optional[Variant]
) -> Tuple[ReplicationTask, ...]:
    """The replication tasks of one cell (baseline when *variant* is None)."""
    config = spec.config
    policy = spec.baseline.policy
    system_kind = spec.baseline.system_kind
    system_kwargs = spec.baseline.system_kwargs
    faults = spec.settings.faults
    workload = spec.settings.workload
    if variant is not None:
        for dotted_path, value in variant.config_patches:
            config = set_config_parameter(config, dotted_path, value)
        if variant.policy is not None:
            policy = variant.policy
        if variant.system_kind is not None:
            system_kind = variant.system_kind
            system_kwargs = variant.system_kwargs
        if variant.faults is not None:
            faults = variant.faults
        if variant.workload is not None:
            workload = variant.workload
    settings = spec.settings.with_faults(faults).with_workload(workload)
    return tuple(
        replication_tasks(
            config,
            policy,
            settings,
            system_kind=system_kind,
            system_kwargs=system_kwargs,
        )
    )


def _variant_cell(
    spec: StudySpec, component: Component, variant: Variant
) -> StudyCell:
    try:
        tasks = _cell_tasks(spec, variant)
    except ValueError as exc:
        # ReplicationTask rejects bad system parameters and updates under
        # a fault plan; point the error at the offending cell.
        raise ValueError(
            f"study {spec.name!r}, component {component.name!r}, "
            f"variant {variant.name!r}: {exc}"
        ) from exc
    return StudyCell(
        label=f"{component.name}:{variant.name}",
        component=component.name,
        variant=variant.name,
        tasks=tasks,
    )


def expand(spec: StudySpec) -> StudyGrid:
    """Expand *spec* into its grid (pure; no simulation happens here)."""
    baseline = StudyCell(
        label=BASELINE_LABEL,
        component=None,
        variant=None,
        tasks=_cell_tasks(spec, None),
    )
    cells = tuple(
        _variant_cell(spec, component, variant)
        for component in spec.components
        for variant in component.variants
    )
    return StudyGrid(spec=spec, baseline=baseline, cells=cells)


__all__ = ["BASELINE_LABEL", "StudyCell", "StudyGrid", "expand"]
