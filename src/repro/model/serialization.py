"""JSON round-tripping of configs and results.

Experiments are parameterized by :class:`~repro.model.config.SystemConfig`
objects; serializing them lets users store experiment definitions alongside
results, diff configurations, and drive custom sweeps from files::

    config = load_config("my_experiment.json")
    config = config_from_dict({...})
    save_config(config, "my_experiment.json")

The format is a plain nested dict mirroring the dataclass structure, plus a
``format_version`` field so future changes stay loadable.

Result objects round-trip too — :func:`results_to_dict` /
:func:`results_from_dict` for one run's
:class:`~repro.model.metrics.SystemResults` and
:func:`averaged_results_to_dict` / :func:`averaged_results_from_dict` for a
replication-averaged
:class:`~repro.experiments.common.AveragedResults`.  These power the
content-addressed result cache (:mod:`repro.experiments.cache`) and let
sweep outputs be archived losslessly.

Fault plans round-trip with :func:`fault_plan_to_dict` /
:func:`fault_plan_from_dict` (and :func:`save_fault_plan` /
:func:`load_fault_plan` for files) — this is the on-disk format the CLI's
``--faults plan.json`` flag reads.

Workload specs round-trip with :func:`workload_spec_to_dict` /
:func:`workload_spec_from_dict` (and :func:`save_workload_spec` /
:func:`load_workload_spec` for files) — the on-disk format of the CLI's
``--workload plan.json`` flag.  Only the built-in arrival processes
serialize; a custom :class:`~repro.workloads.arrivals.ArrivalProcess`
works at run time but cannot enter cache keys or files.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional, Union

from repro.faults.plan import (
    FaultPlan,
    LoadBoardOutage,
    MessageFaults,
    RandomOutages,
    SiteOutage,
)
from repro.model.config import (
    ConfigError,
    NetworkSpec,
    QueryClassSpec,
    SiteSpec,
    SystemConfig,
)
from repro.model.metrics import (
    AvailabilitySummary,
    SystemResults,
    WorkloadSummary,
)
from repro.sim.stats import IntervalEstimate
from repro.telemetry.tracing.decisions import DecisionSummary
from repro.telemetry.tracing.spans import SpanSummary
from repro.workloads.arrivals import (
    ArrivalSpec,
    ClosedTerminals,
    DiurnalRate,
    MMPP,
    PoissonOpen,
    TraceDriven,
)
from repro.workloads.spec import AdmissionControl, WorkloadSpec

FORMAT_VERSION = 1

#: Version tag of the serialized result formats (bump on layout changes).
RESULTS_FORMAT_VERSION = 1

#: Version tag of the serialized fault-plan format.
FAULT_PLAN_FORMAT_VERSION = 1

#: Version tag of the serialized workload-spec format.
WORKLOAD_FORMAT_VERSION = 1


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Flatten a :class:`SystemConfig` into JSON-compatible primitives."""
    return {
        "format_version": FORMAT_VERSION,
        "num_sites": config.num_sites,
        "site": {
            "num_disks": config.site.num_disks,
            "disk_time": config.site.disk_time,
            "disk_time_dev": config.site.disk_time_dev,
            "mpl": config.site.mpl,
            "think_time": config.site.think_time,
        },
        "classes": [
            {
                "name": spec.name,
                "page_cpu_time": spec.page_cpu_time,
                "num_reads": spec.num_reads,
                "result_fraction": spec.result_fraction,
                "query_size": spec.query_size,
            }
            for spec in config.classes
        ],
        "class_probs": list(config.class_probs),
        "network": {
            "msg_length": config.network.msg_length,
            "msg_time": config.network.msg_time,
            "page_size": config.network.page_size,
            "subnet_kind": config.network.subnet_kind,
        },
        "disk_organization": config.disk_organization,
        "integer_reads": config.integer_reads,
    }


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output.

    Raises:
        ConfigError: On missing keys, unknown versions, or invalid values
            (field validation happens in the dataclasses themselves).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported config format version {version}")
    try:
        site = SiteSpec(**data["site"])
        classes = tuple(QueryClassSpec(**spec) for spec in data["classes"])
        network = NetworkSpec(**data["network"])
        return SystemConfig(
            num_sites=data["num_sites"],
            site=site,
            classes=classes,
            class_probs=tuple(data["class_probs"]),
            network=network,
            disk_organization=data.get("disk_organization", "per_disk"),
            integer_reads=data.get("integer_reads", True),
        )
    except KeyError as missing:
        raise ConfigError(f"config dict is missing key {missing}") from None
    except TypeError as bad:
        raise ConfigError(f"malformed config dict: {bad}") from None


def save_config(config: SystemConfig, path: Union[str, pathlib.Path]) -> None:
    """Write *config* as pretty-printed JSON."""
    payload = json.dumps(config_to_dict(config), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(payload + "\n", encoding="utf-8")


def load_config(path: Union[str, pathlib.Path]) -> SystemConfig:
    """Read a config written by :func:`save_config`."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ConfigError(f"{path}: not valid JSON ({bad})") from None
    return config_from_dict(data)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


def fault_plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    """Flatten a :class:`~repro.faults.plan.FaultPlan` into JSON primitives."""
    return {
        "format_version": FAULT_PLAN_FORMAT_VERSION,
        "site_outages": [
            {"site": o.site, "at": o.at, "duration": o.duration}
            for o in plan.site_outages
        ],
        "random_outages": [
            {"mtbf": o.mtbf, "mttr": o.mttr, "site": o.site}
            for o in plan.random_outages
        ],
        "messages": (
            None
            if plan.messages is None
            else {
                "loss_prob": plan.messages.loss_prob,
                "extra_delay": plan.messages.extra_delay,
                "retransmit_timeout": plan.messages.retransmit_timeout,
                "max_retransmits": plan.messages.max_retransmits,
            }
        ),
        "loadboard_outages": [
            {"at": o.at, "duration": o.duration} for o in plan.loadboard_outages
        ],
        "max_retries": plan.max_retries,
        "retry_backoff": plan.retry_backoff,
        "backoff_factor": plan.backoff_factor,
    }


def fault_plan_from_dict(data: Dict[str, Any]) -> FaultPlan:
    """Rebuild a :class:`~repro.faults.plan.FaultPlan`.

    Raises:
        ConfigError: On missing keys, unknown versions, or malformed values
            (field validation happens in the plan dataclasses themselves).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    version = data.get("format_version", FAULT_PLAN_FORMAT_VERSION)
    if version != FAULT_PLAN_FORMAT_VERSION:
        raise ConfigError(f"unsupported fault-plan format version {version}")
    messages_data = data.get("messages")
    try:
        return FaultPlan(
            site_outages=tuple(
                SiteOutage(**entry) for entry in data.get("site_outages", [])
            ),
            random_outages=tuple(
                RandomOutages(**entry) for entry in data.get("random_outages", [])
            ),
            messages=(
                None if messages_data is None else MessageFaults(**messages_data)
            ),
            loadboard_outages=tuple(
                LoadBoardOutage(**entry)
                for entry in data.get("loadboard_outages", [])
            ),
            max_retries=data.get("max_retries", 5),
            retry_backoff=data.get("retry_backoff", 1.0),
            backoff_factor=data.get("backoff_factor", 2.0),
        )
    except KeyError as missing:
        raise ConfigError(f"fault plan dict is missing key {missing}") from None
    except TypeError as bad:
        raise ConfigError(f"malformed fault plan dict: {bad}") from None


def save_fault_plan(plan: FaultPlan, path: Union[str, pathlib.Path]) -> None:
    """Write *plan* as pretty-printed JSON (the ``--faults`` file format)."""
    payload = json.dumps(fault_plan_to_dict(plan), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(payload + "\n", encoding="utf-8")


def load_fault_plan(path: Union[str, pathlib.Path]) -> FaultPlan:
    """Read a fault plan written by :func:`save_fault_plan`."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ConfigError(f"{path}: not valid JSON ({bad})") from None
    return fault_plan_from_dict(data)


# ----------------------------------------------------------------------
# Workload specs
# ----------------------------------------------------------------------


def _arrivals_to_dict(arrivals: ArrivalSpec) -> Dict[str, Any]:
    if isinstance(arrivals, ClosedTerminals):
        return {"kind": "closed"}
    if isinstance(arrivals, PoissonOpen):
        return {
            "kind": "poisson",
            "rate": arrivals.rate,
            "per_site": arrivals.per_site,
        }
    if isinstance(arrivals, MMPP):
        return {
            "kind": "mmpp",
            "rates": list(arrivals.rates),
            "mean_holding": list(arrivals.mean_holding),
            "per_site": arrivals.per_site,
        }
    if isinstance(arrivals, DiurnalRate):
        return {
            "kind": "diurnal",
            "base_rate": arrivals.base_rate,
            "amplitude": arrivals.amplitude,
            "period": arrivals.period,
            "per_site": arrivals.per_site,
        }
    if isinstance(arrivals, TraceDriven):
        return {
            "kind": "trace",
            "arrivals": [[time, site] for time, site in arrivals.arrivals],
        }
    raise ConfigError(
        f"arrival process {type(arrivals).__name__} is not serializable "
        "(only the built-in processes round-trip)"
    )


def _arrivals_from_dict(data: Dict[str, Any]) -> ArrivalSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    kind = data.get("kind")
    try:
        if kind == "closed":
            return ClosedTerminals()
        if kind == "poisson":
            return PoissonOpen(
                rate=data["rate"], per_site=data.get("per_site", True)
            )
        if kind == "mmpp":
            return MMPP(
                rates=tuple(data["rates"]),
                mean_holding=tuple(data["mean_holding"]),
                per_site=data.get("per_site", True),
            )
        if kind == "diurnal":
            return DiurnalRate(
                base_rate=data["base_rate"],
                amplitude=data["amplitude"],
                period=data["period"],
                per_site=data.get("per_site", True),
            )
        if kind == "trace":
            return TraceDriven(
                arrivals=tuple(
                    (time, site) for time, site in data["arrivals"]
                )
            )
    except KeyError as missing:
        raise ConfigError(
            f"{kind} arrival dict is missing key {missing}"
        ) from None
    except TypeError as bad:
        raise ConfigError(f"malformed arrival dict: {bad}") from None
    raise ConfigError(f"unknown arrival-process kind {kind!r}")


def workload_spec_to_dict(spec: WorkloadSpec) -> Dict[str, Any]:
    """Flatten a :class:`~repro.workloads.spec.WorkloadSpec` into primitives."""
    return {
        "format_version": WORKLOAD_FORMAT_VERSION,
        "arrivals": _arrivals_to_dict(spec.arrivals),
        "admission": (
            None
            if spec.admission is None
            else {"max_pending": spec.admission.max_pending}
        ),
    }


def workload_spec_from_dict(data: Dict[str, Any]) -> WorkloadSpec:
    """Rebuild a :class:`~repro.workloads.spec.WorkloadSpec`.

    Raises:
        ConfigError: On missing keys, unknown versions, or unknown
            arrival kinds (value validation happens in the spec
            dataclasses themselves).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    version = data.get("format_version", WORKLOAD_FORMAT_VERSION)
    if version != WORKLOAD_FORMAT_VERSION:
        raise ConfigError(f"unsupported workload format version {version}")
    try:
        arrivals_data = data["arrivals"]
    except KeyError as missing:
        raise ConfigError(
            f"workload dict is missing key {missing}"
        ) from None
    admission_data = data.get("admission")
    try:
        admission = (
            None
            if admission_data is None
            else AdmissionControl(max_pending=admission_data["max_pending"])
        )
    except (KeyError, TypeError) as bad:
        raise ConfigError(f"malformed admission dict: {bad}") from None
    return WorkloadSpec(
        arrivals=_arrivals_from_dict(arrivals_data), admission=admission
    )


def save_workload_spec(
    spec: WorkloadSpec, path: Union[str, pathlib.Path]
) -> None:
    """Write *spec* as pretty-printed JSON (the ``--workload`` file format)."""
    payload = json.dumps(workload_spec_to_dict(spec), indent=2, sort_keys=True)
    pathlib.Path(path).write_text(payload + "\n", encoding="utf-8")


def load_workload_spec(path: Union[str, pathlib.Path]) -> WorkloadSpec:
    """Read a workload spec written by :func:`save_workload_spec`."""
    text = pathlib.Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ConfigError(f"{path}: not valid JSON ({bad})") from None
    return workload_spec_from_dict(data)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


def workload_summary_to_dict(summary: WorkloadSummary) -> Dict[str, Any]:
    """Flatten a :class:`WorkloadSummary` into JSON primitives."""
    return {
        "kind": summary.kind,
        "offered": summary.offered,
        "admitted": summary.admitted,
        "shed": summary.shed,
        "shed_fraction": summary.shed_fraction,
    }


def workload_summary_from_dict(data: Dict[str, Any]) -> WorkloadSummary:
    """Rebuild a :class:`WorkloadSummary`."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    try:
        return WorkloadSummary(
            kind=data["kind"],
            offered=data["offered"],
            admitted=data["admitted"],
            shed=data["shed"],
            shed_fraction=data["shed_fraction"],
        )
    except KeyError as missing:
        raise ConfigError(
            f"workload summary dict is missing key {missing}"
        ) from None


def availability_to_dict(summary: AvailabilitySummary) -> Dict[str, Any]:
    """Flatten an :class:`AvailabilitySummary` into JSON primitives."""
    return {
        "site_downtime": list(summary.site_downtime),
        "crashes": summary.crashes,
        "recoveries": summary.recoveries,
        "queries_aborted": summary.queries_aborted,
        "queries_retried": summary.queries_retried,
        "queries_lost": summary.queries_lost,
        "messages_dropped": summary.messages_dropped,
        "degraded_completions": summary.degraded_completions,
        "clean_response_time": summary.clean_response_time,
        "degraded_response_time": summary.degraded_response_time,
    }


def availability_from_dict(data: Dict[str, Any]) -> AvailabilitySummary:
    """Rebuild an :class:`AvailabilitySummary`."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    try:
        return AvailabilitySummary(
            site_downtime=tuple(data["site_downtime"]),
            crashes=data["crashes"],
            recoveries=data["recoveries"],
            queries_aborted=data["queries_aborted"],
            queries_retried=data["queries_retried"],
            queries_lost=data["queries_lost"],
            messages_dropped=data["messages_dropped"],
            degraded_completions=data["degraded_completions"],
            clean_response_time=data["clean_response_time"],
            degraded_response_time=data["degraded_response_time"],
        )
    except KeyError as missing:
        raise ConfigError(
            f"availability dict is missing key {missing}"
        ) from None


def decision_summary_to_dict(summary: DecisionSummary) -> Dict[str, Any]:
    """Flatten a :class:`DecisionSummary` into JSON primitives."""
    return {
        "count": summary.count,
        "mean_staleness": summary.mean_staleness,
        "max_staleness": summary.max_staleness,
        "mean_regret": summary.mean_regret,
        "max_regret": summary.max_regret,
        "total_regret": summary.total_regret,
        "optimal_fraction": summary.optimal_fraction,
    }


def decision_summary_from_dict(data: Dict[str, Any]) -> DecisionSummary:
    """Rebuild a :class:`DecisionSummary`."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    try:
        return DecisionSummary(
            count=data["count"],
            mean_staleness=data["mean_staleness"],
            max_staleness=data["max_staleness"],
            mean_regret=data["mean_regret"],
            max_regret=data["max_regret"],
            total_regret=data["total_regret"],
            optimal_fraction=data["optimal_fraction"],
        )
    except KeyError as missing:
        raise ConfigError(
            f"decision summary dict is missing key {missing}"
        ) from None


def span_summary_to_dict(summary: SpanSummary) -> Dict[str, Any]:
    """Flatten a :class:`SpanSummary` into JSON primitives."""
    return {
        "count": summary.count,
        "queries": summary.queries,
        "unfinished": summary.unfinished,
        "kinds": [[kind, count] for kind, count in summary.kinds],
    }


def span_summary_from_dict(data: Dict[str, Any]) -> SpanSummary:
    """Rebuild a :class:`SpanSummary`."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    try:
        return SpanSummary(
            count=data["count"],
            queries=data["queries"],
            unfinished=data["unfinished"],
            kinds=tuple(
                (str(kind), int(count)) for kind, count in data["kinds"]
            ),
        )
    except KeyError as missing:
        raise ConfigError(
            f"span summary dict is missing key {missing}"
        ) from None


def interval_to_dict(estimate: IntervalEstimate) -> Dict[str, Any]:
    """Flatten an :class:`IntervalEstimate` into JSON primitives."""
    return {
        "mean": estimate.mean,
        "half_width": estimate.half_width,
        "confidence": estimate.confidence,
        "batches": estimate.batches,
    }


def interval_from_dict(data: Dict[str, Any]) -> IntervalEstimate:
    """Rebuild an :class:`IntervalEstimate` from :func:`interval_to_dict`."""
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    try:
        return IntervalEstimate(
            mean=data["mean"],
            half_width=data["half_width"],
            confidence=data["confidence"],
            batches=data["batches"],
        )
    except KeyError as missing:
        raise ConfigError(f"interval dict is missing key {missing}") from None


def results_to_dict(results: SystemResults) -> Dict[str, Any]:
    """Flatten one run's :class:`SystemResults` into JSON primitives.

    The ``workload`` key is emitted only when the run carried an open
    workload, and the ``decisions`` / ``spans`` keys only when the run
    collected the decision audit / span trace: payloads of runs without
    those features are byte-identical to older archives, so the golden
    corpus digests and every cached entry stay valid.
    """
    payload: Dict[str, Any] = {
        "format_version": RESULTS_FORMAT_VERSION,
        "policy": results.policy,
        "mean_waiting_time": results.mean_waiting_time,
        "mean_response_time": results.mean_response_time,
        "fairness": results.fairness,
        "waiting_by_class": list(results.waiting_by_class),
        "normalized_by_class": list(results.normalized_by_class),
        "subnet_utilization": results.subnet_utilization,
        "cpu_utilization": results.cpu_utilization,
        "disk_utilization": results.disk_utilization,
        "completions": results.completions,
        "remote_fraction": results.remote_fraction,
        "measured_time": results.measured_time,
        "waiting_ci": (
            None
            if results.waiting_ci is None
            else interval_to_dict(results.waiting_ci)
        ),
        "telemetry": (
            None
            if results.telemetry is None
            else [[name, value] for name, value in results.telemetry]
        ),
        "availability": (
            None
            if results.availability is None
            else availability_to_dict(results.availability)
        ),
    }
    if results.workload is not None:
        payload["workload"] = workload_summary_to_dict(results.workload)
    if results.decisions is not None:
        payload["decisions"] = decision_summary_to_dict(results.decisions)
    if results.spans is not None:
        payload["spans"] = span_summary_to_dict(results.spans)
    return payload


def results_from_dict(data: Dict[str, Any]) -> SystemResults:
    """Rebuild a :class:`SystemResults` from :func:`results_to_dict` output.

    Raises:
        ConfigError: On missing keys, unknown versions, or malformed values.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    version = data.get("format_version", RESULTS_FORMAT_VERSION)
    if version != RESULTS_FORMAT_VERSION:
        raise ConfigError(f"unsupported results format version {version}")
    ci_data = data.get("waiting_ci")
    waiting_ci: Optional[IntervalEstimate] = (
        None if ci_data is None else interval_from_dict(ci_data)
    )
    # Absent in closed-run entries: .get keeps every archive loadable.
    workload_data = data.get("workload")
    workload = (
        None
        if workload_data is None
        else workload_summary_from_dict(workload_data)
    )
    # Absent in audit-free entries: .get keeps every archive loadable.
    decisions_data = data.get("decisions")
    decisions = (
        None
        if decisions_data is None
        else decision_summary_from_dict(decisions_data)
    )
    # Absent in trace-free entries: .get keeps every archive loadable.
    spans_data = data.get("spans")
    spans = (
        None if spans_data is None else span_summary_from_dict(spans_data)
    )
    try:
        telemetry_data = data["telemetry"]
        availability_data = data["availability"]
        return SystemResults(
            policy=data["policy"],
            mean_waiting_time=data["mean_waiting_time"],
            mean_response_time=data["mean_response_time"],
            fairness=data["fairness"],
            waiting_by_class=tuple(data["waiting_by_class"]),
            normalized_by_class=tuple(data["normalized_by_class"]),
            subnet_utilization=data["subnet_utilization"],
            cpu_utilization=data["cpu_utilization"],
            disk_utilization=data["disk_utilization"],
            completions=data["completions"],
            remote_fraction=data["remote_fraction"],
            measured_time=data["measured_time"],
            waiting_ci=waiting_ci,
            telemetry=(
                None
                if telemetry_data is None
                else tuple((str(name), float(value)) for name, value in telemetry_data)
            ),
            availability=(
                None
                if availability_data is None
                else availability_from_dict(availability_data)
            ),
            workload=workload,
            decisions=decisions,
            spans=spans,
        )
    except KeyError as missing:
        raise ConfigError(f"results dict is missing key {missing}") from None
    except TypeError as bad:
        raise ConfigError(f"malformed results dict: {bad}") from None


def averaged_results_to_dict(averaged) -> Dict[str, Any]:
    """Flatten an :class:`~repro.experiments.common.AveragedResults`."""
    return {
        "format_version": RESULTS_FORMAT_VERSION,
        "policy": averaged.policy,
        "mean_waiting_time": averaged.mean_waiting_time,
        "mean_response_time": averaged.mean_response_time,
        "fairness": averaged.fairness,
        "subnet_utilization": averaged.subnet_utilization,
        "cpu_utilization": averaged.cpu_utilization,
        "disk_utilization": averaged.disk_utilization,
        "remote_fraction": averaged.remote_fraction,
        "completions": averaged.completions,
        "per_replication": [
            results_to_dict(run) for run in averaged.per_replication
        ],
    }


def averaged_results_from_dict(data: Dict[str, Any]):
    """Rebuild an :class:`~repro.experiments.common.AveragedResults`.

    Raises:
        ConfigError: On missing keys, unknown versions, or malformed values.
    """
    # Imported lazily: repro.experiments.common depends on repro.model, so a
    # top-level import here would be circular.
    from repro.experiments.common import AveragedResults

    if not isinstance(data, dict):
        raise ConfigError(f"expected a dict, got {type(data).__name__}")
    version = data.get("format_version", RESULTS_FORMAT_VERSION)
    if version != RESULTS_FORMAT_VERSION:
        raise ConfigError(f"unsupported results format version {version}")
    try:
        return AveragedResults(
            policy=data["policy"],
            mean_waiting_time=data["mean_waiting_time"],
            mean_response_time=data["mean_response_time"],
            fairness=data["fairness"],
            subnet_utilization=data["subnet_utilization"],
            cpu_utilization=data["cpu_utilization"],
            disk_utilization=data["disk_utilization"],
            remote_fraction=data["remote_fraction"],
            completions=data["completions"],
            per_replication=tuple(
                results_from_dict(run) for run in data["per_replication"]
            ),
        )
    except KeyError as missing:
        raise ConfigError(f"results dict is missing key {missing}") from None
    except TypeError as bad:
        raise ConfigError(f"malformed results dict: {bad}") from None


__all__ = [
    "FORMAT_VERSION",
    "RESULTS_FORMAT_VERSION",
    "FAULT_PLAN_FORMAT_VERSION",
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "WORKLOAD_FORMAT_VERSION",
    "fault_plan_to_dict",
    "fault_plan_from_dict",
    "save_fault_plan",
    "load_fault_plan",
    "workload_spec_to_dict",
    "workload_spec_from_dict",
    "save_workload_spec",
    "load_workload_spec",
    "workload_summary_to_dict",
    "workload_summary_from_dict",
    "availability_to_dict",
    "availability_from_dict",
    "decision_summary_to_dict",
    "decision_summary_from_dict",
    "span_summary_to_dict",
    "span_summary_from_dict",
    "interval_to_dict",
    "interval_from_dict",
    "results_to_dict",
    "results_from_dict",
    "averaged_results_to_dict",
    "averaged_results_from_dict",
]
