"""The top-level run facade: one entry-point signature for every run.

Before this module, each layer had its own spelling of "run the system":
``DistributedDatabase.run(warmup, duration)``, the experiment harness's
``RunSettings``, and the parallel backend's ``ReplicationTask``.
:class:`RunSpec` is the shared vocabulary — warmup, duration, seed, and
optional telemetry — and two functions cover every use:

* :func:`execute` — run an already-constructed system under a spec
  (the parallel backend's worker calls this);
* :func:`run` — the one-line public entry point: build the system from a
  config and a policy (name or instance), run it, and return a
  :class:`RunReport` bundling results, the typed event stream, and the
  sampled timeline, with exporter helpers attached.

Example::

    import repro

    report = repro.run(
        repro.paper_defaults(),
        "LERT",
        repro.RunSpec(
            warmup=500.0,
            duration=2500.0,
            seed=7,
            telemetry=repro.TelemetryConfig(sample_interval=50.0),
        ),
    )
    report.write_events("events.jsonl")
    report.write_timeline("timeline.csv")
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.faults.plan import FaultPlan
from repro.model.config import SystemConfig
from repro.model.metrics import AvailabilitySummary, SystemResults
from repro.model.system import DistributedDatabase
from repro.policies.base import AllocationPolicy
from repro.policies.registry import make_policy
from repro.telemetry.events import TelemetryEvent
from repro.telemetry.exporters import (
    PathLike,
    write_events_jsonl,
    write_timeline_csv,
    write_timeline_json,
)
from repro.telemetry.sampler import TimelineSample
from repro.telemetry.session import TelemetryConfig, TelemetrySession
from repro.telemetry.tracing.decisions import DecisionRecord
from repro.telemetry.tracing.export import (
    write_decisions_jsonl,
    write_spans_chrome,
)
from repro.telemetry.tracing.spans import Span
from repro.workloads.spec import WorkloadSpec, normalize_workload

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids importing the
    # full experiment harness just to annotate from_settings)
    from repro.experiments.runconfig import RunSettings


@dataclass(frozen=True, slots=True)
class RunSpec:
    """Everything that defines one simulation run (except the model).

    Attributes:
        warmup: Simulated time discarded before measurement (>= 0).
        duration: Length of the measurement window (> 0).
        seed: Master seed for every random stream of the run.
        telemetry: What to collect during the run; ``None`` disables the
            telemetry subsystem entirely (zero overhead).
        faults: Fault plan to install before the run; ``None`` (and a
            no-op plan) runs the plain, faultless life cycle — the run is
            then byte-identical to one without the field.
        workload: Workload spec driving the run; ``None`` (and the
            default closed spec, which normalizes to ``None``) is the
            paper's closed model — byte-identical to one without the
            field.  Unlike faults, workloads bind at system
            construction: :func:`run` passes the spec to the
            constructor, while :func:`execute` only checks that the
            given system was built with it.
    """

    warmup: float = 3000.0
    duration: float = 15000.0
    seed: int = 0
    telemetry: Optional[TelemetryConfig] = None
    faults: Optional[FaultPlan] = None
    workload: Optional[WorkloadSpec] = None

    def __post_init__(self) -> None:
        if self.warmup < 0 or math.isinf(self.warmup) or self.warmup != self.warmup:
            raise ValueError(f"warmup must be finite and >= 0, got {self.warmup}")
        if not (self.duration > 0) or math.isinf(self.duration):
            raise ValueError(
                f"duration must be finite and > 0, got {self.duration}"
            )
        object.__setattr__(self, "workload", normalize_workload(self.workload))

    @classmethod
    def from_settings(
        cls,
        settings: "RunSettings",
        replication: int = 0,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> "RunSpec":
        """Build a spec from an experiment-harness :class:`RunSettings`.

        ``replication`` selects the replication's derived master seed,
        exactly as the harness does.
        """
        return cls(
            warmup=settings.warmup,
            duration=settings.duration,
            seed=settings.seed_for(replication),
            telemetry=telemetry,
            faults=settings.faults,
            workload=settings.workload,
        )


@dataclass(frozen=True, slots=True)
class RunReport:
    """The full outcome of one :func:`run`/:func:`execute` call.

    Attributes:
        results: The run's :class:`SystemResults` (with the telemetry
            summary folded into ``results.telemetry`` when enabled).
        events: The typed event stream (empty when telemetry or its
            event log was disabled).
        timeline: The sampled load timeline (empty when sampling was
            disabled).
        spans: The query-lifecycle spans (empty unless the spec enabled
            ``TelemetryConfig(spans=True)``).
        decisions: The allocation decision audit (empty unless the spec
            enabled ``TelemetryConfig(decisions=True)``).
    """

    results: SystemResults
    events: Tuple[TelemetryEvent, ...] = ()
    timeline: Tuple[TimelineSample, ...] = ()
    spans: Tuple[Span, ...] = ()
    decisions: Tuple[DecisionRecord, ...] = ()

    @property
    def availability(self) -> Optional[AvailabilitySummary]:
        """The run's availability metrics (``None`` for faultless runs)."""
        return self.results.availability

    @property
    def summary(self) -> Dict[str, float]:
        """The metrics-registry snapshot as a plain dict ({} if disabled)."""
        if self.results.telemetry is None:
            return {}
        return dict(self.results.telemetry)

    def write_events(self, path: PathLike) -> Path:
        """Export the event stream as JSONL; returns the path written."""
        return write_events_jsonl(self.events, path)

    def write_timeline(self, path: PathLike, fmt: str = "csv") -> Path:
        """Export the timeline as ``fmt`` ('csv' or 'json')."""
        if fmt == "csv":
            return write_timeline_csv(self.timeline, path)
        if fmt == "json":
            return write_timeline_json(self.timeline, path)
        raise ValueError(f"unknown timeline format {fmt!r}; use 'csv' or 'json'")

    def write_spans(self, path: PathLike) -> Path:
        """Export the spans as Chrome trace-event JSON (Perfetto-loadable)."""
        return write_spans_chrome(self.spans, path)

    def write_decisions(self, path: PathLike) -> Path:
        """Export the decision audit as canonical JSONL."""
        return write_decisions_jsonl(self.decisions, path)


def execute(system: DistributedDatabase, spec: RunSpec) -> RunReport:
    """Run an already-constructed *system* under *spec*.

    The system must be freshly constructed (its clock at 0); ``spec.seed``
    is *not* re-applied here — seeds bind at system construction.  This is
    the single choke point every runner shares: the parallel backend's
    workers, the experiment harness, and :func:`run` all come through it.
    ``spec.faults`` is installed here (a no-op plan installs nothing), so
    callers construct systems without fault arguments.  ``spec.workload``
    cannot be installed after the fact — arrival processes start at time
    0 inside the constructor — so it must already match the system's.
    """
    if spec.workload != system.workload_spec:
        raise ValueError(
            "spec.workload does not match the system's workload: workloads "
            "bind at construction (pass workload= to DistributedDatabase, "
            "or use repro.run)"
        )
    if spec.faults is not None:
        installed = system.fault_injector
        if installed is None or installed.plan != spec.faults:
            # Idempotent when the constructor already took the same plan;
            # install_faults itself rejects conflicting double-installs.
            system.install_faults(spec.faults)
    if spec.telemetry is None:
        return RunReport(results=system.run(spec.warmup, spec.duration))
    with TelemetrySession(system, spec.telemetry) as session:
        results = system.run(spec.warmup, spec.duration)
    return RunReport(
        results=session.merge(results),
        events=session.events,
        timeline=session.timeline,
        spans=session.spans,
        decisions=session.decisions,
    )


def run(
    config: SystemConfig,
    policy: Union[str, AllocationPolicy],
    spec: RunSpec = RunSpec(),
) -> RunReport:
    """Build the paper's system and run it — the public one-liner.

    Args:
        config: Model parameters (e.g. :func:`repro.paper_defaults`).
        policy: A registered policy name ("LOCAL", "BNQ", "BNQRD",
            "LERT", ...) or an unbound :class:`AllocationPolicy` instance.
        spec: Run lengths, seed, and telemetry options.
    """
    instance = make_policy(policy) if isinstance(policy, str) else policy
    system = DistributedDatabase(
        config, instance, seed=spec.seed, workload=spec.workload
    )
    return execute(system, spec)


__all__ = ["RunSpec", "RunReport", "execute", "run"]
