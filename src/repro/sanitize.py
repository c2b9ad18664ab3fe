"""Runtime determinism sanitizer: instrumented replay comparison.

The static flow rules (``repro-lint --flow``) prove discipline *in the
source*; this module checks the same property *at runtime*: run the same
scenario twice under instrumentation and require the two traces to be
identical, draw for draw and event for event.  A divergence localizes
the first nondeterministic decision — which stream drew differently, or
which event popped out of order — instead of the downstream symptom
("mean response time differs in the 12th digit").

Instrumentation is a context manager that patches, class-level and
reversibly:

* :meth:`repro.sim.rng.RandomStreams.stream` and
  :meth:`~repro.sim.rng.RandomStreams.once` — every fetched stream is
  wrapped in a recording proxy, so each draw logs
  ``(stream name, method, value)``.  ``spawn``-ed child families are
  covered automatically (the patch is on the class).
* ``pop``/``pop_due`` on the future-event list — every event the engine
  fires logs ``(time, priority, seq, label)``.
  :meth:`Simulator._drive` binds ``queue.pop_due`` at entry, so the
  patch must be active *before* ``run()`` — entering the context
  manager before building the system satisfies this.

Each record is folded into a running BLAKE2b digest, so comparing two
multi-million-event traces is O(1) memory beyond the bounded record
buffer kept for diagnostics.

Run the built-in scenario (faults + telemetry enabled) with::

    python -m repro.sanitize --smoke
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from contextlib import contextmanager

from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.config import paper_defaults
from repro.runner import RunReport, RunSpec, run
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.telemetry.session import TelemetryConfig

#: ``random.Random`` methods recorded by the stream proxy — kept in sync
#: with :data:`repro.lint.flow.dataflow.DRAW_METHODS`.
RECORDED_DRAWS: Tuple[str, ...] = (
    "random",
    "uniform",
    "triangular",
    "randint",
    "randrange",
    "getrandbits",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "expovariate",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "betavariate",
    "gammavariate",
)

#: Records kept verbatim for diagnostics; the digest always covers all.
MAX_KEPT_RECORDS = 200_000


@dataclass
class DeterminismTrace:
    """One run's ordered record of draws and event pops."""

    records: List[str] = field(default_factory=list)
    count: int = 0
    dropped: int = 0
    _digest: "hashlib.blake2b" = field(
        default_factory=lambda: hashlib.blake2b(digest_size=16)
    )

    def add(self, record: str) -> None:
        self.count += 1
        self._digest.update(record.encode("utf-8"))
        self._digest.update(b"\n")
        if len(self.records) < MAX_KEPT_RECORDS:
            self.records.append(record)
        else:
            self.dropped += 1

    def draw(self, stream: str, method: str, value: object) -> None:
        self.add(f"draw {stream} {method} {value!r}")

    def event(self, event: Event) -> None:
        self.add(
            f"event t={event.time!r} p={event.priority} seq={event.seq} "
            f"label={event.label}"
        )

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


class _RecordingStream:
    """Wraps one named ``random.Random``, logging every recorded draw."""

    def __init__(
        self, name: str, underlying: random.Random, trace: DeterminismTrace
    ) -> None:
        self._name = name
        self._underlying = underlying
        self._trace = trace

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._underlying, attr)
        if attr in RECORDED_DRAWS and callable(value):
            name = self._name
            trace = self._trace

            def recorded(*args: Any, **kwargs: Any) -> Any:
                result = value(*args, **kwargs)
                # shuffle mutates in place and returns None; log length
                # instead so the record still pins the call order.
                logged = result if result is not None else f"<{attr}>"
                trace.draw(name, attr, logged)
                return result

            return recorded
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<recorded stream {self._name!r}>"


@contextmanager
def capture_trace() -> Iterator[DeterminismTrace]:
    """Instrument stream draws and event pops for the enclosed code.

    Yields the :class:`DeterminismTrace` being filled.  Patches are
    class-level, so every :class:`Simulator` (and every ``spawn``-ed
    stream family) constructed inside the block is covered; they are
    restored on exit even if the block raises.  Not reentrant.
    """
    trace = DeterminismTrace()
    proxies: Dict[int, _RecordingStream] = {}

    original_stream = RandomStreams.stream
    original_once = RandomStreams.once

    def recording_stream(self: RandomStreams, name: str) -> Any:
        underlying = original_stream(self, name)
        proxy = proxies.get(id(underlying))
        if proxy is None:
            proxy = _RecordingStream(name, underlying, trace)
            proxies[id(underlying)] = proxy
        return proxy

    def recording_once(self: RandomStreams, name: str) -> Any:
        # Never through ``proxies``: one-shot streams are freed after use
        # and their ids reused, so an id-keyed lookup would hand a new
        # stream the proxy of a dead one.
        return _RecordingStream(name, original_once(self, name), trace)

    def wrap_pop(
        original: Callable[..., Optional[Event]],
    ) -> Callable[..., Optional[Event]]:
        def recording_pop(self: Any, *args: Any) -> Optional[Event]:
            event = original(self, *args)
            if event is not None:
                trace.event(event)
            return event

        return recording_pop

    patches: List[Tuple[type, str, Any]] = [
        (RandomStreams, "stream", RandomStreams.stream),
        (RandomStreams, "once", RandomStreams.once),
        (EventQueue, "pop", EventQueue.pop),
        (EventQueue, "pop_due", EventQueue.pop_due),
    ]
    setattr(RandomStreams, "stream", recording_stream)
    setattr(RandomStreams, "once", recording_once)
    setattr(EventQueue, "pop", wrap_pop(EventQueue.pop))
    setattr(EventQueue, "pop_due", wrap_pop(EventQueue.pop_due))
    try:
        yield trace
    finally:
        for owner, attr, original in patches:
            setattr(owner, attr, original)


@dataclass(frozen=True)
class Divergence:
    """The first point at which two traces disagree."""

    index: int
    first: Optional[str]
    second: Optional[str]

    def render(self) -> str:
        return (
            f"first divergence at record {self.index}:\n"
            f"  run 1: {self.first or '<trace ended>'}\n"
            f"  run 2: {self.second or '<trace ended>'}"
        )


@dataclass(frozen=True)
class SanitizeReport:
    """Outcome of comparing two instrumented replays."""

    identical: bool
    records: Tuple[int, int]
    digests: Tuple[str, str]
    divergence: Optional[Divergence]

    def render(self) -> str:
        if self.identical:
            return (
                f"replays identical: {self.records[0]} records, "
                f"digest {self.digests[0]}"
            )
        lines = [
            "replays DIVERGED:",
            f"  run 1: {self.records[0]} records, digest {self.digests[0]}",
            f"  run 2: {self.records[1]} records, digest {self.digests[1]}",
        ]
        if self.divergence is not None:
            lines.append(self.divergence.render())
        else:
            lines.append(
                "  (divergence beyond the kept-record window; digests differ)"
            )
        return "\n".join(lines)


def _first_divergence(
    first: DeterminismTrace, second: DeterminismTrace
) -> Optional[Divergence]:
    for index in range(max(len(first.records), len(second.records))):
        a = first.records[index] if index < len(first.records) else None
        b = second.records[index] if index < len(second.records) else None
        if a != b:
            return Divergence(index=index, first=a, second=b)
    return None


def compare_replays(
    scenario: Callable[[], object], runs: int = 2
) -> SanitizeReport:
    """Run *scenario* *runs* times under instrumentation and compare.

    The scenario callable must construct everything it runs from scratch
    (seed included) — instrumentation starts before it is invoked, so
    systems built inside are fully covered.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare, got {runs}")
    traces: List[DeterminismTrace] = []
    for _ in range(runs):
        with capture_trace() as trace:
            scenario()
        traces.append(trace)
    reference = traces[0]
    for candidate in traces[1:]:
        if candidate.hexdigest() != reference.hexdigest():
            return SanitizeReport(
                identical=False,
                records=(reference.count, candidate.count),
                digests=(reference.hexdigest(), candidate.hexdigest()),
                divergence=_first_divergence(reference, candidate),
            )
    return SanitizeReport(
        identical=True,
        records=(reference.count, traces[1].count),
        digests=(reference.hexdigest(), traces[1].hexdigest()),
        divergence=None,
    )


def smoke_scenario(seed: int = 11) -> Callable[[], RunReport]:
    """The built-in replay scenario: faults and telemetry both enabled.

    Short horizon (50 warmup + 250 measured) over the paper's 6-site
    system, with one mid-run site outage and the timeline sampler armed —
    the combination exercises every subsystem the flow rules reason
    about: fault streams, policy decision streams, telemetry scheduling.
    """
    config = paper_defaults()
    spec = RunSpec(
        warmup=50.0,
        duration=250.0,
        seed=seed,
        telemetry=TelemetryConfig(events=True, sample_interval=25.0),
        faults=FaultPlan(
            site_outages=(SiteOutage(site=1, at=120.0, duration=60.0),)
        ),
    )

    def scenario() -> RunReport:
        return run(config, "LERT", spec)

    return scenario


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.sanitize``)."""
    parser = argparse.ArgumentParser(
        prog="repro-sanitize",
        description=(
            "runtime determinism sanitizer: replay a scenario under draw/"
            "event instrumentation and verify the traces are identical"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the built-in faulted + telemetry scenario",
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="master seed (default: 11)"
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=2,
        help="instrumented replays to compare (default: 2)",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.print_help()
        return 2
    report = compare_replays(smoke_scenario(seed=args.seed), runs=args.runs)
    print(report.render())
    return 0 if report.identical else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())


__all__ = [
    "RECORDED_DRAWS",
    "MAX_KEPT_RECORDS",
    "DeterminismTrace",
    "capture_trace",
    "Divergence",
    "SanitizeReport",
    "compare_replays",
    "smoke_scenario",
    "main",
]
