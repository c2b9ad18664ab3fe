"""Per-layer timing for the traced run, measured from outside the program.

While a :class:`Tracer` is entered it replaces public entry points with
timing wrappers and restores them on exit:

* class level: ``DistributedDatabase.run`` (which also attaches a
  :class:`~repro.telemetry.profile.KernelProfiler` and the instance
  wrappers below), ``ResultCache.get``/``put``, ``parallel.run_task``,
  ``runner.run`` and ``RunReport.write_*``;
* per system instance: ``LoadBoard.register``/``deregister``,
  ``ring.send``, ``view_for``, ``MetricsCollector.record`` and, for open
  workloads, ``WorkloadDriver.submit``.

Every wrapped call adds to its boundary's count, total and self time (total
minus the time of wrapped calls made inside it).  Calls that happen a few
times per cell or less also keep a span in memory; :func:`chrome_events`
turns them into Chrome trace events, which ``run.py`` writes out once,
when the benchmark ends.

The profiler's seams are not on the wrapper stack, so the event-list
operations made inside ``ring.send``/``submit`` and the emits made inside
``record``/``register`` are counted by both.  ``dispatch_s`` therefore
slightly undercounts; it is clipped at zero.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro import runner
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.model.system import DistributedDatabase
from repro.runner import RunReport
from repro.telemetry.profile import KernelProfiler

#: Boundaries that keep spans (a few calls per cell); the rest only count.
SPANNED = (
    "bench.unit",
    "bench.replay",
    "experiments.cell",
    "experiments.cache_get",
    "experiments.cache_put",
    "telemetry.run",
    "sim.run",
    "telemetry.export",
)

_WRITERS = ("write_spans", "write_decisions", "write_events", "write_timeline")


class Tracer:
    """Times calls into the program's layers while entered (not reentrant)."""

    def __init__(self, epoch: float) -> None:
        self.epoch = epoch
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: (boundary, start since epoch, seconds, self seconds)
        self.spans: List[Tuple[str, float, float, float]] = []
        #: KernelProfiler phases summed over runs: seconds and counts.
        self.profile: Dict[str, float] = Counter()
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def timed(self, boundary: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* wrapped to account its calls under *boundary*."""
        clock = time.perf_counter
        stack = self._stack
        keep = boundary in SPANNED

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.total[boundary] += elapsed
                self.self_time[boundary] += elapsed - frame[0]
                self.calls[boundary] += 1
                if keep:
                    self.spans.append(
                        (boundary, start - self.epoch, elapsed, elapsed - frame[0])
                    )

        return wrapper

    def _patch(self, owner: object, name: str, boundary: str) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self.timed(boundary, original))

    def _system_run(self, original: Callable[..., Any]) -> Callable[..., Any]:
        def run(system: DistributedDatabase, warmup: float, duration: float) -> Any:
            board = system.load_board
            board.register = self.timed("model.loadboard", board.register)
            board.deregister = self.timed("model.loadboard", board.deregister)
            system.ring.send = self.timed("model.ring_send", system.ring.send)
            system.view_for = self.timed("model.view", system.view_for)
            system.metrics.record = self.timed("model.record", system.metrics.record)
            driver = system.workload_driver
            if driver is not None:
                driver.submit = self.timed("workloads.submit", driver.submit)
            profiler = KernelProfiler(system)
            with profiler:
                results = original(system, warmup, duration)
            report = profiler.report()
            profile = self.profile
            profile["queue_s"] += report.queue_ops
            profile["queue_ops"] += report.queue_calls
            profile["select_s"] += report.policy
            profile["select_calls"] += report.policy_calls
            profile["emit_s"] += report.telemetry
            profile["emit_calls"] += report.emit_calls
            profile["events"] += system.sim.events_fired
            return results

        return run

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already entered")
        system_run = DistributedDatabase.run
        self._saved.append((DistributedDatabase, "run", system_run))
        DistributedDatabase.run = self.timed("sim.run", self._system_run(system_run))
        self._patch(ResultCache, "get", "experiments.cache_get")
        self._patch(ResultCache, "put", "experiments.cache_put")
        self._patch(parallel, "run_task", "experiments.cell")
        self._patch(runner, "run", "telemetry.run")
        for name in _WRITERS:
            self._patch(RunReport, name, "telemetry.export")
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    # Benchmark-side spans
    # ------------------------------------------------------------------
    def call(self, boundary: str, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
        """Run ``fn(*args)`` as a *boundary* span; returns (result, seconds)."""
        before = self.total[boundary]
        result = self.timed(boundary, fn)(*args)
        return result, self.total[boundary] - before


def layer_self_seconds(tracer: Tracer) -> Dict[str, float]:
    """Self time per boundary, with ``sim.run`` split into profiler phases."""
    seconds = dict(tracer.self_time)
    profile = tracer.profile
    if "sim.run" in seconds:
        kernel = seconds.pop("sim.run")
        phases = profile["queue_s"] + profile["select_s"] + profile["emit_s"]
        seconds["sim.queue"] = profile["queue_s"]
        seconds["policies.select"] = profile["select_s"]
        seconds["telemetry.emit"] = profile["emit_s"]
        seconds["sim.dispatch"] = max(0.0, kernel - phases)
    return seconds


def chrome_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The tracer's spans as Chrome trace ``X`` events carrying their self
    time, closed by a ``self_s`` counter event holding the self seconds of
    every boundary (the caller assigns ``pid``)."""
    events: List[Dict[str, Any]] = []
    end = 0.0
    for boundary, start, elapsed, own in tracer.spans:
        events.append(
            {"ph": "X", "tid": 0, "name": boundary, "cat": boundary.split(".")[0],
             "ts": round(start * 1e6, 3), "dur": round(elapsed * 1e6, 3),
             "args": {"self_ms": round(own * 1e3, 6)}}
        )
        end = max(end, start + elapsed)
    seconds = layer_self_seconds(tracer)
    events.append(
        {"ph": "C", "tid": 0, "name": "self_s", "ts": round(end * 1e6, 3),
         "args": {name: round(seconds[name], 6) for name in sorted(seconds)}}
    )
    return events
