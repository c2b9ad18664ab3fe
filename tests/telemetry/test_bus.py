"""Unit tests for the typed event bus."""

import pytest

from repro.telemetry.bus import EventBus
from repro.telemetry.events import QueryCreated, WarmupEnded


def _created(time=1.0, qid=1):
    return QueryCreated(
        time=time, qid=qid, class_name="io", home_site=0, estimated_reads=5.0
    )


class TestEventBus:
    def test_starts_inactive(self):
        bus = EventBus()
        assert not bus.active
        assert bus.subscription_count == 0
        assert not bus.wants(QueryCreated)

    def test_subscribe_makes_active_and_wanted(self):
        bus = EventBus()
        bus.subscribe(QueryCreated, lambda e: None)
        assert bus.active
        assert bus.wants(QueryCreated)
        assert not bus.wants(WarmupEnded)

    def test_dispatch_is_exact_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(QueryCreated, seen.append)
        bus.emit(_created())
        bus.emit(WarmupEnded(time=2.0))
        assert len(seen) == 1
        assert isinstance(seen[0], QueryCreated)

    def test_subscribers_called_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(QueryCreated, lambda e: order.append("a"))
        bus.subscribe(QueryCreated, lambda e: order.append("b"))
        bus.subscribe(QueryCreated, lambda e: order.append("c"))
        bus.emit(_created())
        assert order == ["a", "b", "c"]

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        seen = []
        token = bus.subscribe(QueryCreated, seen.append)
        bus.unsubscribe(token)
        bus.unsubscribe(token)  # no-op
        assert not bus.active
        bus.emit(_created())
        assert seen == []

    def test_unsubscribe_retracts_only_its_type(self):
        bus = EventBus()
        token = bus.subscribe(QueryCreated, lambda e: None)
        bus.subscribe(WarmupEnded, lambda e: None)
        bus.unsubscribe(token)
        assert not bus.wants(QueryCreated)
        assert bus.wants(WarmupEnded)
        assert bus.active

    def test_emitted_counter(self):
        bus = EventBus()
        bus.subscribe(QueryCreated, lambda e: None)
        bus.emit(_created())
        bus.emit(_created(qid=2))
        assert bus.emitted == 2

    def test_rejects_non_event_types(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(int, lambda e: None)
        with pytest.raises(TypeError):
            bus.subscribe(_created(), lambda e: None)
