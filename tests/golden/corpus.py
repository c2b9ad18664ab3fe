"""Definition and runner for the golden-trace corpus.

The corpus is a small matrix of (seed x policy x fault-plan) runs whose
telemetry JSONL, timeline CSV, kernel trace stream, and ``SystemResults``
JSON were digest-recorded from the **seed kernel** (the straightforward
heap + coroutine event loop, before the hot-path overhaul).  The suite in
``tests/sim/test_golden_equivalence.py`` replays every case and asserts
byte-identity, which makes engine refactors mechanically verifiable: any
change that perturbs event ordering, floating-point arithmetic, RNG
consumption, or telemetry emission fails loudly.

Digests are **never** regenerated as part of a refactoring PR.  The only
sanctioned path is ``tools/regen_golden.py --i-know-this-changes-behavior``
for PRs whose whole point is a behaviour change (and whose review covers
the new recordings).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.experiments.parallel import ReplicationTask, run_tasks
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
)
from repro.model.serialization import results_to_dict
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, run
from repro.sim.events import Event, EventQueue
from repro.telemetry.exporters import events_to_jsonl, timeline_to_csv
from repro.telemetry.session import TelemetryConfig

GOLDEN_DIR = Path(__file__).resolve().parent
MANIFEST_PATH = GOLDEN_DIR / "manifest.json"

#: Bump when the corpus *shape* changes (cases added/removed); the digests
#: themselves only ever change through tools/regen_golden.py.
CORPUS_FORMAT = 1


def golden_config() -> SystemConfig:
    """The corpus system: 3 sites, 2 disks each, a CPU- and an IO-class.

    Small enough that the whole corpus replays in a few seconds, rich
    enough to exercise every kernel path (PS + FCFS servers, ring
    messaging, load-board broadcasts, warmup truncation).
    """
    return SystemConfig(
        num_sites=3,
        site=SiteSpec(
            num_disks=2, disk_time=1.0, disk_time_dev=0.2, mpl=4, think_time=50.0
        ),
        classes=(
            QueryClassSpec("io", page_cpu_time=0.05, num_reads=5.0),
            QueryClassSpec("cpu", page_cpu_time=1.0, num_reads=5.0),
        ),
        class_probs=(0.5, 0.5),
        network=NetworkSpec(msg_length=1.0),
    )


def golden_fault_plan() -> FaultPlan:
    """The corpus chaos plan: every fault kind at once, deterministically."""
    return FaultPlan(
        site_outages=(SiteOutage(site=1, at=800.0, duration=300.0),),
        random_outages=(RandomOutages(mtbf=2500.0, mttr=120.0, site=2),),
        messages=MessageFaults(loss_prob=0.05, extra_delay=0.2),
        loadboard_outages=(LoadBoardOutage(at=1500.0, duration=250.0),),
        max_retries=3,
    )


@dataclass(frozen=True)
class GoldenCase:
    """One recorded run of the corpus matrix."""

    name: str
    policy: str
    seed: int
    warmup: float = 300.0
    duration: float = 2500.0
    faulted: bool = False


#: The recorded matrix.  Order is part of the corpus format.
CASES: Tuple[GoldenCase, ...] = (
    GoldenCase(name="lert_seed1", policy="LERT", seed=1),
    GoldenCase(name="bnqrd_seed2", policy="BNQRD", seed=2),
    GoldenCase(name="local_seed3", policy="LOCAL", seed=3),
    GoldenCase(name="random_faulted_seed5", policy="RANDOM", seed=5, faulted=True),
)

#: The --jobs equivalence batch: replayed serially and with two workers;
#: both orderings must produce byte-identical serialized results.
JOBS_BATCH_POLICIES: Tuple[str, ...] = ("LERT", "BNQ")
JOBS_BATCH_SEEDS: Tuple[int, ...] = (11, 12)
JOBS_WARMUP = 100.0
JOBS_DURATION = 800.0

#: The kernel-trace case: a short run whose labelled events are recorded
#: as ``time|label`` lines in firing order (:func:`record_labels`),
#: pinning the kernel's event order.
TRACE_POLICY = "LERT"
TRACE_SEED = 1
TRACE_WARMUP = 50.0
TRACE_DURATION = 400.0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(payload: Any) -> str:
    """Canonical JSON: sorted keys, minimal separators (digest-stable)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_case(case: GoldenCase) -> Dict[str, Any]:
    """Replay one corpus case; returns its digests and full results dict."""
    spec = RunSpec(
        warmup=case.warmup,
        duration=case.duration,
        seed=case.seed,
        telemetry=TelemetryConfig(events=True, sample_interval=100.0),
        faults=golden_fault_plan() if case.faulted else None,
    )
    report = run(golden_config(), case.policy, spec)
    results = results_to_dict(report.results)
    return {
        "results": results,
        "results_sha256": _sha256(canonical_json(results)),
        "events_sha256": _sha256(events_to_jsonl(report.events)),
        "timeline_sha256": _sha256(timeline_to_csv(report.timeline)),
    }


@contextmanager
def record_labels(record: Callable[[Event], None]) -> Iterator[None]:
    """Call *record* with every labelled event the engine fires.

    Wraps :meth:`EventQueue.pop_due` class-wide for the block, so enter
    it before ``run()``: the engine binds ``pop_due`` when its loop
    starts.  Unlabelled events are skipped.
    """
    original = EventQueue.pop_due

    def recording_pop_due(queue: EventQueue, until: float) -> Optional[Event]:
        event = original(queue, until)
        if event is not None and event.label is not None:
            record(event)
        return event

    EventQueue.pop_due = recording_pop_due  # type: ignore[method-assign]
    try:
        yield
    finally:
        EventQueue.pop_due = original  # type: ignore[method-assign]


def run_trace_case() -> Dict[str, Any]:
    """Replay the kernel-trace case; returns the trace-stream digest."""
    system = DistributedDatabase(
        golden_config(), make_policy(TRACE_POLICY), seed=TRACE_SEED
    )
    digest = hashlib.sha256()
    count = 0

    def record(event: Event) -> None:
        nonlocal count
        count += 1
        digest.update(f"{event.time!r}|{event.label}\n".encode("utf-8"))

    with record_labels(record):
        system.run(TRACE_WARMUP, TRACE_DURATION)
    return {"trace_sha256": digest.hexdigest(), "trace_messages": count}


def jobs_batch_tasks() -> List[ReplicationTask]:
    """The --jobs equivalence batch (includes one faulted task)."""
    config = golden_config()
    tasks = [
        ReplicationTask(
            config=config,
            policy=policy,
            seed=seed,
            warmup=JOBS_WARMUP,
            duration=JOBS_DURATION,
        )
        for policy in JOBS_BATCH_POLICIES
        for seed in JOBS_BATCH_SEEDS
    ]
    tasks.append(
        ReplicationTask(
            config=config,
            policy="RANDOM",
            seed=13,
            warmup=JOBS_WARMUP,
            duration=JOBS_DURATION,
            faults=golden_fault_plan(),
        )
    )
    return tasks


def run_jobs_batch(jobs: int) -> str:
    """Run the equivalence batch with *jobs* workers; returns its digest."""
    results = run_tasks(jobs_batch_tasks(), jobs=jobs)
    payload = [results_to_dict(result) for result in results]
    return _sha256(canonical_json(payload))


def build_manifest() -> Dict[str, Any]:
    """Run the whole corpus and assemble a manifest (regeneration path)."""
    cases: Dict[str, Dict[str, Any]] = {}
    for case in CASES:
        outcome = run_case(case)
        cases[case.name] = {
            "results_sha256": outcome["results_sha256"],
            "events_sha256": outcome["events_sha256"],
            "timeline_sha256": outcome["timeline_sha256"],
        }
        results_path = GOLDEN_DIR / f"results_{case.name}.json"
        results_path.write_text(
            canonical_json(outcome["results"]) + "\n", encoding="utf-8"
        )
    trace = run_trace_case()
    return {
        "format": CORPUS_FORMAT,
        "recorded_from": "seed kernel (pre hot-path overhaul)",
        "cases": cases,
        "trace": trace,
        "jobs": {"results_sha256": run_jobs_batch(jobs=1)},
    }


def load_manifest() -> Dict[str, Any]:
    """The recorded manifest (raises if the corpus was never generated)."""
    with MANIFEST_PATH.open(encoding="utf-8") as handle:
        manifest: Dict[str, Any] = json.load(handle)
    return manifest


def load_recorded_results(name: str) -> Dict[str, Any]:
    """The recorded full ``SystemResults`` dict for one case."""
    path = GOLDEN_DIR / f"results_{name}.json"
    with path.open(encoding="utf-8") as handle:
        results: Dict[str, Any] = json.load(handle)
    return results
