"""Process-pool execution backend for the experiment harness.

Every simulation run the harness makes — one ``(config, policy, seed)``
replication — is a pure, picklable function of its inputs, so the
replications of every experiment (tables, studies and
:func:`~repro.experiments.common.simulate` alike, all through
:func:`simulate_many`) can fan out across cores with
:class:`concurrent.futures.ProcessPoolExecutor` and be
reassembled deterministically: results are returned *in task order*, never
completion order, and replication averaging uses :func:`math.fsum` (whose
correctly-rounded sum is permutation invariant), so output is bit-identical
to a serial run regardless of scheduling.

The backend composes with the content-addressed result cache
(:mod:`repro.experiments.cache`): cached tasks are answered without touching
the pool, duplicate tasks inside one batch are simulated once, and fresh
results are written back atomically.

Public surface:

* :class:`ReplicationTask` — picklable spec of one simulation run;
* :func:`run_task` — execute one task (also the worker entry point);
* :func:`run_tasks` — execute a batch, optionally parallel and cached;
* :func:`simulate_many` — run many cells as one batch, one average each;
* :func:`resolve_jobs` — normalize a ``--jobs`` value to a worker count;
* :class:`RunProgress` — live progress: ``run_tasks`` invokes a
  callback (``StudyContext.progress`` for every experiment) as each task
  resolves, from cache or simulation.  Progress is *observational only* —
  it is reported in resolution order, which under a pool is
  nondeterministic, but the returned results remain in task order and
  bit-identical regardless.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.context import StudyContext
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import FaultPlan
from repro.model.config import SystemConfig
from repro.model.mechanisms import check_system
from repro.model.metrics import SystemResults
from repro.workloads.spec import WorkloadSpec, normalize_workload

if TYPE_CHECKING:  # common imports this module at run time
    from repro.experiments.common import AveragedResults


@dataclass(frozen=True)
class RunProgress:
    """One progress tick of a :func:`run_tasks` batch.

    Attributes:
        completed: Tasks resolved so far (including this one).
        total: Tasks in the batch.
        cached: How many of the resolved tasks came from the cache.
        policy: Policy name of the task that just resolved.
        seed: Seed of the task that just resolved.
    """

    completed: int
    total: int
    cached: int
    policy: str
    seed: int


#: A live progress consumer (e.g. a CLI spinner).
ProgressCallback = Callable[[RunProgress], None]


@dataclass(frozen=True)
class ReplicationTask:
    """Picklable description of one simulation run.

    ``system_kind`` names a row of
    :data:`~repro.model.mechanisms.SYSTEM_KINDS` (which mechanisms of
    :class:`~repro.model.system.DistributedDatabase` the run switches
    on), and ``system_kwargs`` overrides that row's defaults as a sorted
    tuple of ``(name, value)`` pairs so the task stays hashable and its
    cache key stays canonical.  Both are checked at construction, names
    and values against ``config`` and ``faults``
    (:func:`~repro.model.mechanisms.check_system`), so a bad parameter
    fails here, not in a worker.

    ``faults`` optionally installs a fault plan for the run.  A no-op
    plan is normalized to ``None`` at construction (same run, same cache
    key), and non-``None`` plans are folded into :meth:`key`, so a
    faulted task can never be answered from a faultless cache entry.
    Every system kind takes a fault plan except ``"updates"``.

    ``workload`` optionally drives the run with an open workload spec.
    The default closed spec is normalized to ``None`` at construction
    (same run, same cache key), and non-``None`` specs are folded into
    :meth:`key`.
    """

    config: SystemConfig
    policy: str
    seed: int
    warmup: float
    duration: float
    system_kind: str = "standard"
    system_kwargs: Tuple[Tuple[str, Any], ...] = field(default=())
    faults: Optional[FaultPlan] = None
    workload: Optional[WorkloadSpec] = None

    def __post_init__(self) -> None:
        check_system(self.system_kind, self.system_kwargs, self.config, self.faults)
        ordered = tuple(sorted(self.system_kwargs))
        object.__setattr__(self, "system_kwargs", ordered)
        if self.faults is not None and self.faults.is_noop:
            object.__setattr__(self, "faults", None)
        object.__setattr__(self, "workload", normalize_workload(self.workload))

    def key(self) -> str:
        """Content address of this task (see :func:`cache_key`)."""
        return cache_key(
            self.config,
            self.policy,
            seed=self.seed,
            warmup=self.warmup,
            duration=self.duration,
            system_kind=self.system_kind,
            system_kwargs=self.system_kwargs,
            faults=self.faults,
            workload=self.workload,
        )


def replication_tasks(
    config: SystemConfig,
    policy: str,
    settings: RunSettings,
    *,
    system_kind: str = "standard",
    system_kwargs: Tuple[Tuple[str, Any], ...] = (),
) -> List[ReplicationTask]:
    """One task per replication of a (config, policy, settings) cell.

    ``settings.faults`` and ``settings.workload`` (when set) are carried
    onto every task.
    """
    return [
        ReplicationTask(
            config=config,
            policy=policy,
            seed=settings.seed_for(replication),
            warmup=settings.warmup,
            duration=settings.duration,
            system_kind=system_kind,
            system_kwargs=system_kwargs,
            faults=settings.faults,
            workload=settings.workload,
        )
        for replication in range(settings.replications)
    ]


def run_task(task: ReplicationTask) -> SystemResults:
    """Execute one task to completion (the process-pool worker function).

    Goes through :func:`repro.runner.execute` — the shared run
    entry point — always with telemetry disabled: cached results are
    telemetry-free, so telemetry options can never perturb cache keys or
    cached content.
    """
    # Imported lazily so pool workers (and the no-runner import path)
    # never pay for it, and to keep the module import graph acyclic.
    from repro.model.system import DistributedDatabase
    from repro.policies.registry import make_policy
    from repro.runner import RunSpec, execute

    mechanisms = check_system(
        task.system_kind, task.system_kwargs, task.config, task.faults
    )
    # Workloads bind at construction (arrival processes start at time 0),
    # unlike fault plans which execute() installs.
    system = DistributedDatabase(
        task.config,
        make_policy(task.policy),
        seed=task.seed,
        workload=task.workload,
        mechanisms=mechanisms,
    )
    spec = RunSpec(
        warmup=task.warmup,
        duration=task.duration,
        seed=task.seed,
        faults=task.faults,
        workload=task.workload,
    )
    return execute(system, spec).results


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` style value to a positive worker count.

    ``None`` or ``1`` mean serial; ``0`` and negative values mean "all
    cores" (:func:`os.cpu_count`).
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _pool_context():
    """Prefer fork on platforms that have it (cheap workers, no re-import)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def run_tasks(
    tasks: Sequence[ReplicationTask],
    *,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[SystemResults]:
    """Execute *tasks* and return their results **in task order**.

    * With ``jobs > 1`` outstanding work fans out over a process pool;
      completion order never affects the returned list.
    * With a *cache*, each task is answered from disk when possible and
      fresh results are written back; duplicate tasks within the batch are
      simulated only once.
    * With *progress*, the callback fires once per task as it resolves —
      from cache or simulation — in resolution order.  Display only;
      results are unaffected.
    """
    total = len(tasks)
    resolved = 0
    from_cache = 0

    def tick(task: ReplicationTask, count: int, cached: bool) -> None:
        nonlocal resolved, from_cache
        resolved += count
        if cached:
            from_cache += count
        if progress is not None:
            progress(
                RunProgress(
                    completed=resolved,
                    total=total,
                    cached=from_cache,
                    policy=task.policy,
                    seed=task.seed,
                )
            )

    results: List[Optional[SystemResults]] = [None] * len(tasks)

    # Resolve cache hits up front; collect one representative index per
    # distinct outstanding task (duplicates share the computed result).
    representatives: Dict[ReplicationTask, List[int]] = {}
    for index, task in enumerate(tasks):
        if cache is not None:
            hit = cache.get(task.key())
            if hit is not None:
                results[index] = hit
                tick(task, 1, cached=True)
                continue
        representatives.setdefault(task, []).append(index)

    pending = [(task, indices) for task, indices in representatives.items()]
    workers = min(resolve_jobs(jobs), len(pending)) if pending else 0
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            futures = {
                pool.submit(run_task, task): (task, indices)
                for task, indices in pending
            }
            for future in as_completed(futures):
                outcome = future.result()
                task, indices = futures[future]
                for index in indices:
                    results[index] = outcome
                tick(task, len(indices), cached=False)
    else:
        for task, indices in pending:
            outcome = run_task(task)
            for index in indices:
                results[index] = outcome
            tick(task, len(indices), cached=False)

    if cache is not None:
        for task, indices in pending:
            cache.put(task.key(), results[indices[0]])
    return results  # type: ignore[return-value]


def simulate_many(
    cells: Sequence[Sequence[ReplicationTask]],
    *,
    context: StudyContext = StudyContext(),
) -> List["AveragedResults"]:
    """Run many cells as one batch and average each over its replications.

    Each cell is one task list as :func:`replication_tasks` returns it;
    its policy is that of its tasks.  All tasks of all cells go through
    :func:`run_tasks` together (maximizing pool utilization and cache
    dedup), and each cell's runs come back in replication order.
    Returns one :class:`~repro.experiments.common.AveragedResults` per
    cell, in cell order, bit-identical for any ``context.jobs``.
    """
    from repro.experiments.common import average_results

    runs = iter(
        run_tasks(
            [task for cell in cells for task in cell],
            jobs=context.jobs,
            cache=context.cache,
            progress=context.progress,
        )
    )
    return [
        average_results(cell[0].policy, list(islice(runs, len(cell))))
        for cell in cells
    ]


__all__ = [
    "ProgressCallback",
    "ReplicationTask",
    "RunProgress",
    "replication_tasks",
    "resolve_jobs",
    "run_task",
    "run_tasks",
    "simulate_many",
]
