"""repro — Dynamic Task Allocation in a Distributed Database System.

A complete reproduction of Carey, Livny & Lu's ICDCS 1985 paper
(UW–Madison TR #556): a discrete-event simulation of a fully-replicated
distributed database system, the four query-allocation policies the paper
studies (LOCAL, BNQ, BNQRD, LERT), an exact multiclass Mean Value Analysis
substrate for the optimal-allocation study, and a harness that regenerates
every table of the paper's evaluation.

Quick start::

    from repro import RunSpec, TelemetryConfig, run, paper_defaults

    report = run(
        paper_defaults(),
        "LERT",
        RunSpec(seed=7, telemetry=TelemetryConfig(sample_interval=100.0)),
    )
    print(report.results)
    report.write_timeline("timeline.csv")

or, driving the system object directly::

    from repro import DistributedDatabase, paper_defaults, make_policy

    system = DistributedDatabase(paper_defaults(), make_policy("LERT"), seed=7)
    results = system.run(warmup=3000, duration=15000)
    print(results)

Subpackages:

* :mod:`repro.sim` — discrete-event simulation kernel (DISS-equivalent).
* :mod:`repro.queueing` — closed multiclass queueing networks and MVA.
* :mod:`repro.model` — the distributed database system model.
* :mod:`repro.policies` — the allocation policies.
* :mod:`repro.analysis` — the §3 optimal-allocation study (WIF/FIF).
* :mod:`repro.experiments` — table-regeneration harness.
* The paper's §6.2 future work and relaxed assumptions — query
  migration, subquery pipelines, stale load info, update queries,
  heterogeneous CPU speeds and partial replication — are mechanisms of
  :class:`DistributedDatabase` itself, set by its :class:`Mechanisms`.
* :mod:`repro.telemetry` — typed event bus, a session that buffers one
  run's events, timeline sampler, exporters, query-lifecycle spans, and
  the allocation decision audit (see ``docs/telemetry.md``).
* :mod:`repro.faults` — deterministic fault injection: declarative
  :class:`FaultPlan`, degraded-mode query life cycle, availability
  metrics (see ``docs/faults.md``).
* :mod:`repro.runner` — the :func:`run`/:func:`execute` facade shared by
  the library API and the experiment harness.
* :mod:`repro.workloads` — pluggable workloads: the paper's closed
  terminals (the default) plus open arrival processes with admission
  control (see ``docs/workloads.md``).

Fault-injection quick start::

    from repro import FaultPlan, RandomOutages, RunSpec, run, paper_defaults

    plan = FaultPlan(random_outages=(RandomOutages(mtbf=2000.0, mttr=50.0),))
    report = run(paper_defaults(), "BNQ", RunSpec(seed=7, faults=plan))
    print(report.availability)

Open-workload quick start::

    from repro import AdmissionControl, PoissonOpen, RunSpec, WorkloadSpec
    from repro import run, paper_defaults

    spec = WorkloadSpec(
        arrivals=PoissonOpen(rate=0.08),
        admission=AdmissionControl(max_pending=32),
    )
    report = run(paper_defaults(), "LERT", RunSpec(seed=7, workload=spec))
    print(report.results.workload)

Tracing quick start::

    from repro import RunSpec, TelemetryConfig, run, paper_defaults

    spec = RunSpec(seed=7, telemetry=TelemetryConfig(spans=True, decisions=True))
    report = run(paper_defaults(), "BNQRD", spec)
    report.write_spans("trace.json")        # Chrome trace-event JSON
    report.write_decisions("decisions.jsonl")
    print(report.results.decisions)         # staleness/regret summary
"""

from repro.faults.plan import (
    FaultPlan,
    LoadBoardOutage,
    MessageFaults,
    RandomOutages,
    SiteOutage,
)
from repro.model.config import (
    NetworkSpec,
    QueryClassSpec,
    SiteSpec,
    SystemConfig,
    paper_classes,
    paper_defaults,
)
from repro.model.metrics import (
    AvailabilitySummary,
    SystemResults,
    WorkloadSummary,
)
from repro.model.mechanisms import Mechanisms
from repro.model.system import DistributedDatabase
from repro.model.view import SystemView
from repro.policies.base import AllocationPolicy
from repro.policies.registry import available_policies, make_policy
from repro.runner import RunReport, RunSpec, execute, run
from repro.telemetry import (
    DecisionRecord,
    DecisionSummary,
    EventBus,
    KernelProfiler,
    Span,
    SpanSummary,
    TelemetryConfig,
    TelemetrySession,
)
from repro.workloads import (
    AdmissionControl,
    ArrivalProcess,
    ClosedTerminals,
    DiurnalRate,
    MMPP,
    PoissonOpen,
    TraceDriven,
    WorkloadError,
    WorkloadSpec,
)

__version__ = "13.0.0"

__all__ = [
    "DistributedDatabase",
    "Mechanisms",
    "SystemConfig",
    "SiteSpec",
    "NetworkSpec",
    "QueryClassSpec",
    "SystemResults",
    "AvailabilitySummary",
    "paper_classes",
    "paper_defaults",
    "AllocationPolicy",
    "SystemView",
    "make_policy",
    "available_policies",
    "FaultPlan",
    "SiteOutage",
    "RandomOutages",
    "MessageFaults",
    "LoadBoardOutage",
    "WorkloadSpec",
    "WorkloadSummary",
    "WorkloadError",
    "AdmissionControl",
    "ArrivalProcess",
    "ClosedTerminals",
    "PoissonOpen",
    "MMPP",
    "DiurnalRate",
    "TraceDriven",
    "RunSpec",
    "RunReport",
    "run",
    "execute",
    "EventBus",
    "TelemetryConfig",
    "TelemetrySession",
    "Span",
    "SpanSummary",
    "DecisionRecord",
    "DecisionSummary",
    "KernelProfiler",
    "__version__",
]
