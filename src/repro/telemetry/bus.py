"""The typed event bus: subscribe-by-type dispatch with zero-cost disable.

The :class:`EventBus` is owned by the simulation engine
(``Simulator.bus``) and shared by every model component of a run.
Emitters follow the *guarded emit* idiom::

    bus = sim.bus
    if bus.wants(QueryAllocated):
        bus.emit(QueryAllocated(time=sim.now, ...))

so that when nothing is subscribed the per-emission cost is a single
dictionary membership test and **no event object is ever constructed** —
the property the disabled-telemetry benchmark
(``benchmarks/telemetry_overhead.py``) pins below 3%.

Dispatch is by *exact* event type (no ``isinstance`` walk): a subscriber
for ``QueryCompleted`` sees only ``QueryCompleted`` events, and a
collector that wants many types subscribes to each.  That keeps the
opt-in event types (:class:`~repro.telemetry.events.ServiceFinished`,
:class:`~repro.telemetry.events.AllocationDecided`) unconstructed unless
something names them.

Determinism: subscribers are invoked in subscription order, synchronously,
on the emitting thread.  The bus never reorders or buffers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Type

from repro.telemetry.events import TelemetryEvent

#: A subscriber callable.  Handlers for a specific type may annotate the
#: concrete event class; the bus stores them type-erased.
Handler = Callable[[TelemetryEvent], None]


class Subscription:
    """Token returned by :meth:`EventBus.subscribe`; pass to unsubscribe.

    Attributes:
        event_type: The subscribed type.
        handler: The registered callable.
    """

    __slots__ = ("event_type", "handler", "active")

    def __init__(self, event_type: Type[TelemetryEvent], handler: Handler) -> None:
        self.event_type = event_type
        self.handler = handler
        self.active = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.active else " inactive"
        return f"<Subscription {self.event_type.__name__}{state}>"


class EventBus:
    """Synchronous publish/subscribe hub for :class:`TelemetryEvent`.

    Attributes:
        active: ``True`` while at least one subscription exists.  A plain
            attribute (not a property) so hot kernel paths can test it at
            attribute-load cost.
        emitted: Total events dispatched so far.
    """

    def __init__(self) -> None:
        self.active: bool = False
        self.emitted: int = 0
        # type -> immutable handler snapshot (rebuilt on (un)subscribe so
        # emit() can iterate without copying).
        self._by_type: Dict[Type[TelemetryEvent], Tuple[Handler, ...]] = {}
        self._subscriptions: List[Subscription] = []

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self, event_type: Type[TelemetryEvent], handler: Handler
    ) -> Subscription:
        """Receive every emitted event of exactly *event_type*.

        Returns:
            A :class:`Subscription` token for :meth:`unsubscribe`.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, TelemetryEvent)):
            raise TypeError(f"not a telemetry event type: {event_type!r}")
        subscription = Subscription(event_type, handler)
        self._subscriptions.append(subscription)
        self._rebuild()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Retract a subscription (idempotent)."""
        if subscription.active:
            subscription.active = False
            self._subscriptions = [
                s for s in self._subscriptions if s is not subscription
            ]
            self._rebuild()

    def _rebuild(self) -> None:
        by_type: Dict[Type[TelemetryEvent], List[Handler]] = {}
        for subscription in self._subscriptions:
            by_type.setdefault(subscription.event_type, []).append(
                subscription.handler
            )
        self._by_type = {kind: tuple(handlers) for kind, handlers in by_type.items()}
        self.active = bool(self._by_type)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def wants(self, event_type: Type[TelemetryEvent]) -> bool:
        """Whether emitting an event of *event_type* would reach anyone.

        Emitters call this *before* constructing the event so a disabled
        bus costs one membership test and no allocation.
        """
        return event_type in self._by_type

    def emit(self, event: TelemetryEvent) -> None:
        """Dispatch *event* to the subscribers of its exact type."""
        self.emitted += 1
        for handler in self._by_type.get(type(event), ()):
            handler(event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def subscription_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._subscriptions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventBus subs={self.subscription_count} "
            f"emitted={self.emitted} active={self.active}>"
        )


__all__ = ["Handler", "Subscription", "EventBus"]
