"""One-stop telemetry wiring for a simulation run.

:class:`TelemetrySession` keeps **one** ordered buffer of the events a
run emits, and derives everything else from it:

* the event log (``events``) is the buffer itself;
* spans come from :func:`~repro.telemetry.tracing.spans.assemble_spans`,
  decision records from
  :func:`~repro.telemetry.tracing.decisions.record_from_event`;
* the ``events.<Type>`` counters of :meth:`TelemetrySession.summary`
  count the buffer by type.

The buffer subscribes ``list.append`` by exact type to the union of what
the config asks for: every non-opt-in event type with ``events``,
:data:`~repro.telemetry.tracing.spans.SPAN_EVENT_TYPES` with ``spans``,
and ``AllocationDecided`` with ``decisions``.  The opt-in
``ServiceFinished`` and ``AllocationDecided`` are only emitted when
spans or decisions name them, and ``TraceMessage`` never is.

Two more bus handlers drive the timeline sampler: the session reads the
measurement horizon from
:class:`~repro.telemetry.events.RunStarted` and arms the sampler at
:class:`~repro.telemetry.events.WarmupEnded`, *after* statistics
truncation (so the baseline sample reads post-reset busy integrals and
sampled utilizations integrate exactly to the run's reported figures).
The ``site.*`` and ``queries.*`` statistics of the summary are read from
every site's CPU/disk monitors and the run's query tallies under the
``site.<i>.<resource>.<quantity>`` convention.

Because everything rides on the bus, ``DistributedDatabase.run`` needs
no telemetry parameter: construct the session before ``run()``, read
``events`` / ``timeline`` / ``summary()`` after, and use
:meth:`TelemetrySession.merge` to fold the summary into the returned
:class:`~repro.model.metrics.SystemResults`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type

from repro.sim.monitor import Tally, TimeWeighted
from repro.telemetry.bus import Subscription
from repro.telemetry.events import (
    EVENT_TYPES,
    AllocationDecided,
    RunStarted,
    ServiceFinished,
    TelemetryEvent,
    TraceMessage,
    WarmupEnded,
)
from repro.telemetry.sampler import TimelineSample, TimelineSampler
from repro.telemetry.tracing.decisions import (
    DecisionRecord,
    DecisionSummary,
    record_from_event,
    summarize_decisions,
)
from repro.telemetry.tracing.spans import (
    SPAN_EVENT_TYPES,
    Span,
    SpanSummary,
    assemble_spans,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.metrics import SystemResults
    from repro.model.system import DistributedDatabase

#: The event types ``TelemetryConfig(events=True)`` logs: all but the
#: opt-in ones, which only spans, decisions or a kernel trace ask for.
LOGGED_EVENT_TYPES: Tuple[Type[TelemetryEvent], ...] = tuple(
    kind
    for kind in EVENT_TYPES
    if kind not in (TraceMessage, ServiceFinished, AllocationDecided)
)


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """What a :class:`TelemetrySession` should collect.

    Attributes:
        events: Keep the full event log (and per-type counters).
        sample_interval: Timeline sampling cadence in simulated time;
            ``0.0`` disables the timeline sampler.
        spans: Assemble query-lifecycle spans
            (:func:`~repro.telemetry.tracing.spans.assemble_spans`).
            Arms the opt-in ``ServiceFinished`` emission.
        decisions: Audit every allocation decision
            (:func:`~repro.telemetry.tracing.decisions.record_from_event`).
            Arms the opt-in ``AllocationDecided`` emission.
    """

    events: bool = True
    sample_interval: float = 0.0
    spans: bool = False
    decisions: bool = False

    def __post_init__(self) -> None:
        if self.sample_interval < 0:
            raise ValueError(
                f"sample_interval must be >= 0, got {self.sample_interval}"
            )


@dataclass(frozen=True)
class _Derived:
    """What one buffer length derives to (see ``_derive``)."""

    length: int
    spans: Tuple[Span, ...]
    span_summary: Optional[SpanSummary]
    decisions: Tuple[DecisionRecord, ...]
    decision_summary: Optional[DecisionSummary]
    counts: Dict[str, float]


class TelemetrySession:
    """Attach telemetry collection to one system for one ``run()``.

    Args:
        system: The system to observe.  The session subscribes to the
            system's bus immediately; construct it *before* ``run()``.
        config: What to collect (default: events only).

    Attributes:
        sampler: The timeline sampler, or ``None`` when disabled.
    """

    def __init__(
        self,
        system: "DistributedDatabase",
        config: TelemetryConfig = TelemetryConfig(),
    ) -> None:
        self.system = system
        self.config = config
        self._buffer: List[TelemetryEvent] = []
        self._derived: Optional[_Derived] = None
        self._end_time: Optional[float] = None

        self.sampler: Optional[TimelineSampler] = None
        if config.sample_interval > 0:
            self.sampler = TimelineSampler(system, config.sample_interval)

        buffered: List[Type[TelemetryEvent]] = []
        if config.events:
            buffered.extend(LOGGED_EVENT_TYPES)
        if config.spans:
            buffered.extend(SPAN_EVENT_TYPES)
        if config.decisions:
            buffered.append(AllocationDecided)
        bus = system.sim.bus
        # The hot-path handler is the buffer's own append: each wanted
        # event costs one list append during the run, nothing more.
        append = self._buffer.append
        self._subscriptions: List[Subscription] = [
            bus.subscribe(kind, append) for kind in dict.fromkeys(buffered)
        ]
        self._subscriptions.append(bus.subscribe(RunStarted, self._on_run_started))
        self._subscriptions.append(
            bus.subscribe(WarmupEnded, self._on_warmup_ended)
        )

    # ------------------------------------------------------------------
    # Bus handlers
    # ------------------------------------------------------------------
    def _on_run_started(self, event: TelemetryEvent) -> None:
        assert isinstance(event, RunStarted)
        self._end_time = event.time + event.warmup + event.duration

    def _on_warmup_ended(self, event: TelemetryEvent) -> None:
        del event
        sampler = self.sampler
        if sampler is None:
            return
        end_time = self._end_time
        if end_time is None:
            raise ValueError(
                "WarmupEnded seen without RunStarted; cannot derive the "
                "sampling horizon"
            )
        sampler.start(end_time)

    # ------------------------------------------------------------------
    # Derived views of the buffer
    # ------------------------------------------------------------------
    def _derive(self) -> _Derived:
        """Spans, decisions and event counts of the buffer.

        Assembled once per buffer length: after the run, ``merge()``,
        ``RunReport`` and the exports all share one assembly.
        """
        buffer = self._buffer
        derived = self._derived
        if derived is not None and derived.length == len(buffer):
            return derived
        config = self.config
        spans: Tuple[Span, ...] = ()
        span_summary = None
        if config.spans:
            spans, span_summary = assemble_spans(buffer)
        decisions: Tuple[DecisionRecord, ...] = ()
        decision_summary = None
        if config.decisions:
            decisions = tuple(
                record_from_event(event)
                for event in buffer
                if isinstance(event, AllocationDecided)
            )
            decision_summary = summarize_decisions(decisions)
        counts: Dict[str, float] = {}
        if config.events:
            for kind, count in Counter(map(type, buffer)).items():
                counts[f"events.{kind.__name__}"] = float(count)
        derived = self._derived = _Derived(
            length=len(buffer),
            spans=spans,
            span_summary=span_summary,
            decisions=decisions,
            decision_summary=decision_summary,
            counts=counts,
        )
        return derived

    @property
    def events(self) -> Tuple[TelemetryEvent, ...]:
        """The event log in emission order (empty when events are off)."""
        if not self.config.events:
            return ()
        return tuple(self._buffer)

    @property
    def timeline(self) -> Tuple[TimelineSample, ...]:
        """The sampled timeline (empty when sampling is disabled)."""
        if self.sampler is None:
            return ()
        return self.sampler.samples

    @property
    def spans(self) -> Tuple[Span, ...]:
        """The assembled spans (empty when span tracing is disabled)."""
        return self._derive().spans

    @property
    def decisions(self) -> Tuple[DecisionRecord, ...]:
        """The decision audit (empty when auditing is disabled)."""
        return self._derive().decisions

    def summary(self) -> Dict[str, float]:
        """The run's statistics as sorted ``{"name.stat": value}``.

        ``events.<Type>`` counts the event log by type (only when events
        are on); the ``site.*`` and ``queries.*`` entries read the
        system's monitors (see :func:`_monitor_stats`).
        """
        flat = dict(self._derive().counts)
        flat.update(_monitor_stats(self.system))
        return dict(sorted(flat.items()))

    def merge(self, results: "SystemResults") -> "SystemResults":
        """Return *results* with the telemetry summary folded in.

        When span tracing or the decision audit is enabled, their
        roll-ups ride along as ``results.spans`` / ``results.decisions``.
        """
        results = replace(results, telemetry=tuple(self.summary().items()))
        derived = self._derive()
        if derived.span_summary is not None:
            results = replace(results, spans=derived.span_summary)
        if derived.decision_summary is not None:
            results = replace(results, decisions=derived.decision_summary)
        return results

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unsubscribe from the bus (idempotent); results stay readable."""
        bus = self.system.sim.bus
        for subscription in self._subscriptions:
            bus.unsubscribe(subscription)
        self._subscriptions.clear()

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TelemetrySession events={len(self.events)} "
            f"samples={len(self.timeline)}>"
        )


def _monitor_stats(system: "DistributedDatabase") -> Dict[str, float]:
    """Every site's CPU/disk gauges and the run's query tallies.

    A gauge (:class:`TimeWeighted`) reports ``value``/``avg``/``max``; a
    tally (:class:`Tally`) reports ``count``/``mean``/``stdev`` plus
    ``min``/``max`` once it has observations.  Keys are
    ``<name>.<stat>``, e.g. ``site.0.disk.1.queue.avg``.
    """
    stats: Dict[str, float] = {}

    def gauge(name: str, monitor: TimeWeighted) -> None:
        stats[f"{name}.value"] = float(monitor.value)
        stats[f"{name}.avg"] = float(monitor.time_average)
        stats[f"{name}.max"] = float(monitor.maximum)

    def tally(name: str, monitor: Tally) -> None:
        stats[f"{name}.count"] = float(monitor.count)
        stats[f"{name}.mean"] = float(monitor.mean)
        stats[f"{name}.stdev"] = float(monitor.stdev)
        if monitor.count:
            stats[f"{name}.min"] = float(monitor.minimum)
            stats[f"{name}.max"] = float(monitor.maximum)

    for site in system.sites:
        prefix = f"site.{site.index}"
        gauge(f"{prefix}.cpu.busy", site.cpu.busy)
        gauge(f"{prefix}.cpu.queue", site.cpu.population)
        for position, disk in enumerate(site.disks):
            gauge(f"{prefix}.disk.{position}.busy", disk.busy)
            gauge(f"{prefix}.disk.{position}.queue", disk.population)
    metrics = system.metrics
    tally("queries.waiting", metrics.waiting)
    tally("queries.response", metrics.response)
    tally("queries.normalized", metrics.normalized_waiting)
    return stats


__all__ = ["LOGGED_EVENT_TYPES", "TelemetryConfig", "TelemetrySession"]
