"""Kernel self-profiler: wall-time per engine phase, no external deps.

Answers "where does a run's *real* time go?" by instrumenting the three
seams every simulated event crosses — the future-event list, the
allocation policy, and the telemetry bus — and attributing everything
else to event dispatch (the process callbacks themselves):

========== =========================================================
Phase      What it measures
========== =========================================================
queue_ops  Future-event-list operations (push/rent/pop_due/recycle/
           cancel/peek) — the kernel hot path's data structure.
policy     ``AllocationPolicy.select`` calls.
telemetry  ``EventBus.emit`` dispatch (0 when nothing subscribes:
           guarded emits never reach the bus).
dispatch   Everything else under ``run()`` — event callbacks, the
           loop itself (computed as total minus the other phases).
========== =========================================================

The profiler never touches simulated time, random streams, or event
ordering — a profiled run returns byte-identical
:class:`~repro.model.metrics.SystemResults` — but wrapping the seams
costs real time, so profiled wall-clock numbers are for *attribution*,
not benchmarking (use ``benchmarks/`` for gates).

Implementation notes: every :class:`~repro.sim.process.Process` and
:class:`~repro.sim.resources.Server` caches the simulator's queue object
when it is built, so the queue is instrumented *in place*: for the
profiling window its ``__class__`` is a slot-compatible subclass whose
operations are timed (legal because ``_drive`` re-hoists its bound
methods on every ``run()`` call); the policy and bus are instrumented
with plain instance-attribute wrappers.  ``time.perf_counter`` is
permitted here — ``repro.telemetry`` is outside the kernel's
no-wall-clock lint scope (RL002), which is exactly why the profiler
lives in this package.

CLI::

    python -m repro.telemetry.profile --policy BNQRD --duration 5000
    python -m repro.telemetry.profile --spans --decisions --events
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import DistributedDatabase


@dataclass(frozen=True)
class PhaseReport:
    """Wall-time attribution of one profiled window.

    Attributes:
        total: Wall seconds between install and uninstall.
        queue_ops: Seconds inside future-event-list operations.
        policy: Seconds inside ``AllocationPolicy.select``.
        telemetry: Seconds inside ``EventBus.emit``.
        dispatch: The remainder (event callbacks and the loop itself).
        queue_calls: Future-event-list operations counted.
        policy_calls: ``select`` calls counted.
        emit_calls: ``emit`` calls counted.
    """

    total: float
    queue_ops: float
    policy: float
    telemetry: float
    dispatch: float
    queue_calls: int
    policy_calls: int
    emit_calls: int

    def phases(self) -> Tuple[Tuple[str, float], ...]:
        """The four phases as ``(name, seconds)`` pairs, fixed order."""
        return (
            ("queue_ops", self.queue_ops),
            ("policy", self.policy),
            ("telemetry", self.telemetry),
            ("dispatch", self.dispatch),
        )

    def format(self) -> str:
        """A fixed-width human-readable table."""
        lines = [
            f"{'phase':<10} {'seconds':>10} {'share':>7}  calls",
            "-" * 42,
        ]
        calls = {
            "queue_ops": self.queue_calls,
            "policy": self.policy_calls,
            "telemetry": self.emit_calls,
            "dispatch": "-",
        }
        for name, seconds in self.phases():
            share = seconds / self.total if self.total > 0 else 0.0
            lines.append(
                f"{name:<10} {seconds:>10.4f} {share:>6.1%}  {calls[name]}"
            )
        lines.append("-" * 42)
        lines.append(f"{'total':<10} {self.total:>10.4f}")
        return "\n".join(lines)


#: The future-event-list operations a profiled queue times.
_QUEUE_OPS = (
    "push",
    "rent",
    "recycle",
    "cancel",
    "peek_time",
    "pop",
    "pop_due",
    "clear",
)


def _timed_queue_class(base: type, profiler: "KernelProfiler") -> type:
    """A subclass of *base* whose :data:`_QUEUE_OPS` accumulate wall time.

    It adds no slots, so a live queue can be switched to it and back by
    assigning ``__class__``; every holder of the queue then reaches the
    timed operations.
    """
    clock = time.perf_counter

    def timed(method: Callable[..., object]) -> Callable[..., object]:
        def call(self: object, *args: object) -> object:
            start = clock()
            try:
                return method(self, *args)
            finally:
                profiler._queue_time += clock() - start
                profiler._queue_calls += 1

        return call

    namespace: Dict[str, object] = {
        name: timed(getattr(base, name)) for name in _QUEUE_OPS
    }
    namespace["__slots__"] = ()
    return type("Timed" + base.__name__, (base,), namespace)


class KernelProfiler:
    """Attribute a system's wall time to kernel phases (context manager).

    Example::

        system = DistributedDatabase(config, policy, seed=7)
        profiler = KernelProfiler(system)
        with profiler:
            system.run(warmup=500, duration=5000)
        print(profiler.report().format())

    The instrumentation is installed on ``__enter__`` and fully removed
    on ``__exit__``; the same profiler can be reused (times accumulate
    across windows until :meth:`reset`).
    """

    def __init__(self, system: "DistributedDatabase") -> None:
        self.system = system
        self._queue_time = 0.0
        self._queue_calls = 0
        self._policy_time = 0.0
        self._policy_calls = 0
        self._emit_time = 0.0
        self._emit_calls = 0
        self._total = 0.0
        self._installed = False
        self._started_at = 0.0
        self._saved_queue_class: Optional[type] = None

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Instrument the queue, the policy, and the bus."""
        if self._installed:
            raise ValueError("profiler is already installed")
        self._installed = True
        sim = self.system.sim
        queue = sim._queue
        self._saved_queue_class = type(queue)
        queue.__class__ = _timed_queue_class(type(queue), self)  # type: ignore[assignment]

        policy = self.system.policy
        inner_select = policy.select
        clock = time.perf_counter

        def timed_select(*args: object, **kwargs: object) -> object:
            start = clock()
            try:
                return inner_select(*args, **kwargs)
            finally:
                self._policy_time += clock() - start
                self._policy_calls += 1

        policy.select = timed_select  # type: ignore[method-assign]

        bus = sim.bus
        inner_emit = bus.emit

        def timed_emit(*args: object) -> None:
            start = clock()
            try:
                inner_emit(*args)  # type: ignore[arg-type]
            finally:
                self._emit_time += clock() - start
                self._emit_calls += 1

        bus.emit = timed_emit  # type: ignore[method-assign]
        self._started_at = clock()

    def uninstall(self) -> None:
        """Remove every wrapper and close the timing window."""
        if not self._installed:
            return
        self._total += time.perf_counter() - self._started_at
        self._installed = False
        sim = self.system.sim
        sim._queue.__class__ = self._saved_queue_class  # type: ignore[assignment]
        self._saved_queue_class = None
        # The wrappers live in the instances' __dict__, shadowing the
        # class methods; deleting them restores the originals.
        del self.system.policy.__dict__["select"]
        del sim.bus.__dict__["emit"]

    def __enter__(self) -> "KernelProfiler":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the accumulated times and counts."""
        if self._installed:
            raise ValueError("cannot reset while installed")
        self._queue_time = self._policy_time = self._emit_time = 0.0
        self._total = 0.0
        self._queue_calls = self._policy_calls = self._emit_calls = 0

    def report(self) -> PhaseReport:
        """The accumulated attribution (after ``__exit__``)."""
        if self._installed:
            raise ValueError("cannot report while installed")
        attributed = self._queue_time + self._policy_time + self._emit_time
        return PhaseReport(
            total=self._total,
            queue_ops=self._queue_time,
            policy=self._policy_time,
            telemetry=self._emit_time,
            dispatch=max(0.0, self._total - attributed),
            queue_calls=self._queue_calls,
            policy_calls=self._policy_calls,
            emit_calls=self._emit_calls,
        )


# ----------------------------------------------------------------------
# CLI: python -m repro.telemetry.profile
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Profile one paper-scenario run and print the phase table."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.profile",
        description=(
            "Run the paper's system once under the kernel self-profiler "
            "and print wall-time attribution per engine phase."
        ),
    )
    parser.add_argument("--policy", default="BNQRD", help="allocation policy name")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--warmup", type=float, default=500.0)
    parser.add_argument("--duration", type=float, default=5000.0)
    parser.add_argument(
        "--events", action="store_true", help="attach the session's event log"
    )
    parser.add_argument(
        "--spans", action="store_true", help="enable query-lifecycle tracing"
    )
    parser.add_argument(
        "--decisions", action="store_true", help="enable the decision audit"
    )
    args = parser.parse_args(argv)

    # Imported here so `import repro.telemetry.profile` stays light and
    # free of model dependencies (the profiler class itself only needs
    # the system passed to it).
    from repro.model.config import paper_defaults
    from repro.model.system import DistributedDatabase
    from repro.policies.registry import make_policy
    from repro.telemetry.session import TelemetryConfig, TelemetrySession

    system = DistributedDatabase(
        paper_defaults(), make_policy(args.policy), seed=args.seed
    )
    profiler = KernelProfiler(system)
    telemetry_on = args.events or args.spans or args.decisions
    if telemetry_on:
        config = TelemetryConfig(
            events=args.events, spans=args.spans, decisions=args.decisions
        )
        with TelemetrySession(system, config), profiler:
            results = system.run(args.warmup, args.duration)
    else:
        with profiler:
            results = system.run(args.warmup, args.duration)

    report = profiler.report()
    print(
        f"policy={args.policy} seed={args.seed} "
        f"warmup={args.warmup:g} duration={args.duration:g} "
        f"events_fired={system.sim.events_fired} "
        f"completions={results.completions}"
    )
    print(report.format())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())


__all__ = ["KernelProfiler", "PhaseReport", "main"]
