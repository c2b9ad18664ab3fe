"""Round-trip and schema tests for the typed event taxonomy."""

import dataclasses

import pytest

from repro.codec import from_dict, to_dict
from repro.telemetry.events import (
    AnyEvent,
    EVENT_TYPES,
    AllocationDecided,
    LoadBoardUpdated,
    MessageDropped,
    QueryAborted,
    QueryAllocated,
    QueryCompleted,
    QueryCreated,
    QueryLost,
    QueryRetried,
    QueryShed,
    QueryTransferred,
    RunEnded,
    RunStarted,
    ServiceFinished,
    ServiceStarted,
    SiteCrashed,
    SiteRecovered,
    WarmupEnded,
)

#: One concrete instance of every event type (all fields non-default-ish).
SAMPLES = (
    RunStarted(time=0.0, policy="LERT", seed=7, warmup=100.0, duration=400.0),
    WarmupEnded(time=100.0),
    RunEnded(time=500.0, completions=63),
    QueryCreated(time=1.5, qid=3, class_name="io", home_site=2, estimated_reads=4.25),
    QueryAllocated(time=1.5, qid=3, class_name="io", home_site=2, execution_site=0),
    QueryTransferred(
        time=1.5, qid=3, source=2, destination=0, kind="query", transfer_time=0.125
    ),
    ServiceStarted(time=1.75, qid=3, site=0, reads=4),
    QueryCompleted(
        time=9.0,
        qid=3,
        class_name="io",
        home_site=2,
        execution_site=0,
        remote=True,
        created_at=1.5,
        allocated_at=1.5,
        started_at=1.75,
        finished_at=8.5,
        service_time=6.75,
        waiting_time=7.5,
        migrations=0,
    ),
    LoadBoardUpdated(time=1.5, site=0, io_queries=2, cpu_queries=1, change=1),
    SiteCrashed(time=120.0, site=1),
    SiteRecovered(time=160.0, site=1),
    QueryAborted(time=120.0, qid=3, site=1, attempt=1),
    QueryRetried(time=122.0, qid=3, attempt=2, backoff=2.0),
    QueryLost(time=190.0, qid=4, attempts=6),
    MessageDropped(time=130.0, source=2, destination=0, kind="result", qid=5),
    QueryShed(time=140.0, site=3, serial=212, pending=64),
    AllocationDecided(
        time=1.5,
        qid=3,
        class_name="io",
        home_site=2,
        chosen_site=0,
        staleness=12.5,
        seen_loads="2,0,1",
        true_loads="3,0,1",
        candidates="0,1,2",
        est_service=6.25,
        est_transfer=0.125,
        est_return=0.5,
        attempt=1,
    ),
    ServiceFinished(time=8.5, qid=3, site=0, service_time=6.75),
)


class TestTaxonomy:
    def test_every_type_has_a_sample(self):
        assert {type(s) for s in SAMPLES} == set(EVENT_TYPES)

    def test_events_are_frozen(self):
        for sample in SAMPLES:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sample, "time", -1.0)

    def test_name_property(self):
        assert WarmupEnded(time=1.0).name == "WarmupEnded"


class TestRoundTrip:
    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: s.name)
    def test_dict_round_trip_is_exact(self, sample):
        restored = from_dict(AnyEvent, to_dict(sample))
        assert restored == sample
        assert type(restored) is type(sample)

    def test_to_dict_carries_type_tag(self):
        payload = to_dict(WarmupEnded(time=2.0))
        assert payload == {"event": "WarmupEnded", "time": 2.0}

    def test_coerces_json_widened_ints(self):
        # JSON can't distinguish 1 from 1.0; round-trips restore exact types.
        payload = to_dict(ServiceStarted(time=1.0, qid=3, site=0, reads=4))
        payload["reads"] = 4.0
        payload["time"] = 1
        restored = from_dict(AnyEvent, payload)
        assert restored == ServiceStarted(time=1.0, qid=3, site=0, reads=4)
        assert isinstance(restored.reads, int)
        assert isinstance(restored.time, float)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown event tag"):
            from_dict(AnyEvent, {"event": "Nope", "time": 1.0})
        with pytest.raises(ValueError, match="unknown event tag"):
            from_dict(AnyEvent, {"time": 1.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            from_dict(AnyEvent, {"event": "RunEnded", "time": 1.0})
