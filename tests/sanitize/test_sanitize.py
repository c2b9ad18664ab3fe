"""The runtime determinism sanitizer: tracing, comparison, CLI."""

from __future__ import annotations

import pytest

from repro.sanitize import (
    MAX_KEPT_RECORDS,
    DeterminismTrace,
    capture_trace,
    compare_replays,
    main,
    smoke_scenario,
)
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# Trace plumbing
# ----------------------------------------------------------------------


def test_draws_are_recorded_with_stream_name_and_value():
    with capture_trace() as trace:
        streams = RandomStreams(master_seed=7)
        rng = streams.stream("workload.think")
        value = rng.expovariate(1.0)
    (record,) = trace.records
    assert record == f"draw workload.think expovariate {value!r}"
    assert trace.count == 1


def test_shuffle_is_recorded_despite_returning_none():
    with capture_trace() as trace:
        rng = RandomStreams(master_seed=7).stream("s")
        rng.shuffle([1, 2, 3])
    (record,) = trace.records
    assert record == "draw s shuffle '<shuffle>'"


def test_same_stream_fetched_twice_is_one_proxy():
    with capture_trace():
        streams = RandomStreams(master_seed=7)
        assert streams.stream("a") is streams.stream("a")


def test_one_shot_streams_are_recorded_under_their_own_names():
    # Each one-shot stream is dropped after use, so its id can be reused
    # by the next; every fetch must still get its own recording proxy.
    with capture_trace() as trace:
        streams = RandomStreams(master_seed=7)
        for serial in range(3):
            streams.once(f"query.n{serial}").random()
    assert [record.split()[1] for record in trace.records] == [
        "query.n0",
        "query.n1",
        "query.n2",
    ]
    expected = RandomStreams(master_seed=7).once("query.n2").random()
    assert trace.records[-1] == f"draw query.n2 random {expected!r}"


def test_event_pops_are_recorded():
    with capture_trace() as trace:
        queue = EventQueue()
        queue.push(Event(2.0, _noop, label="second"))
        queue.push(Event(1.0, _noop, label="first"))
        queue.pop()
        queue.pop()
    assert len(trace.records) == 2
    assert "label=first" in trace.records[0]
    assert "label=second" in trace.records[1]
    assert "t=1.0" in trace.records[0]


def test_pop_due_past_horizon_records_nothing():
    with capture_trace() as trace:
        queue = EventQueue()
        queue.push(Event(5.0, _noop))
        assert queue.pop_due(1.0) is None
    assert trace.records == []


def test_patches_are_restored_after_exit():
    original_stream = RandomStreams.stream
    original_once = RandomStreams.once
    original_pop = EventQueue.pop
    with capture_trace():
        assert RandomStreams.stream is not original_stream
        assert RandomStreams.once is not original_once
        assert EventQueue.pop is not original_pop
    assert RandomStreams.stream is original_stream
    assert RandomStreams.once is original_once
    assert EventQueue.pop is original_pop
    # And draws outside the context are plain random.Random draws.
    rng = RandomStreams(master_seed=7).stream("s")
    assert type(rng).__module__ == "random"
    assert type(RandomStreams(master_seed=7).once("s")).__module__ == "random"


def test_patches_are_restored_when_the_block_raises():
    original_stream = RandomStreams.stream
    with pytest.raises(RuntimeError):
        with capture_trace():
            raise RuntimeError("boom")
    assert RandomStreams.stream is original_stream


def test_digest_covers_records_beyond_the_kept_window():
    first = DeterminismTrace()
    second = DeterminismTrace()
    for trace in (first, second):
        trace.records = ["x"] * MAX_KEPT_RECORDS  # window already full
    first.add("tail-a")
    second.add("tail-b")
    assert first.dropped == second.dropped == 1
    assert first.hexdigest() != second.hexdigest()


# ----------------------------------------------------------------------
# Replay comparison
# ----------------------------------------------------------------------


def test_compare_replays_identical_for_deterministic_scenario():
    def scenario():
        streams = RandomStreams(master_seed=3)
        rng = streams.stream("demo")
        return [rng.random() for _ in range(10)]

    report = compare_replays(scenario)
    assert report.identical
    assert report.records == (10, 10)
    assert report.digests[0] == report.digests[1]
    assert report.divergence is None
    assert "replays identical" in report.render()


def test_compare_replays_localizes_first_divergence():
    seeds = iter([1, 2])

    def scenario():
        rng = RandomStreams(master_seed=next(seeds)).stream("demo")
        rng.random()
        return rng.expovariate(1.0)

    report = compare_replays(scenario)
    assert not report.identical
    assert report.divergence is not None
    assert report.divergence.index == 0
    assert report.divergence.first != report.divergence.second
    rendered = report.render()
    assert "DIVERGED" in rendered
    assert "first divergence at record 0" in rendered


def test_compare_replays_needs_two_runs():
    with pytest.raises(ValueError, match="at least 2"):
        compare_replays(lambda: None, runs=1)


# ----------------------------------------------------------------------
# The smoke scenario and CLI
# ----------------------------------------------------------------------


def test_smoke_scenario_replays_identically(capsys):
    # Short horizon, faults + telemetry armed: the full acceptance check.
    report = compare_replays(smoke_scenario(seed=11))
    assert report.identical
    assert report.records[0] > 1000  # the run really was instrumented


def test_cli_smoke_exits_zero(capsys):
    assert main(["--smoke"]) == 0
    out = capsys.readouterr().out
    assert "replays identical" in out


def test_cli_without_smoke_is_usage_error(capsys):
    assert main([]) == 2


def test_cli_smoke_output_is_pinned(capsys):
    # The full smoke line: record count and digest.  Every query and
    # update stream must stay instrumented, whatever way it is fetched;
    # a stream the sanitizer stops seeing shows up here as a lower count.
    assert main(["--smoke"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "replays identical: 11144 records, "
        "digest b4e53a395190f6b8ed6f0d4fee0a9f1b\n"
    )
