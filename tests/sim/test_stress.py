"""Stress tests: the kernel under pathological event patterns.

Every scenario pins an exact *event-count budget* alongside its
behavioural assertion.  The kernel is deterministic, so the number of
events a workload fires is a pure function of the workload — a budget
mismatch means the kernel started firing extra bookkeeping events (or
skipping real ones), which perf work can otherwise introduce silently.

The ``perf``-marked smoke test asserts a deliberately conservative
events/sec floor (the overhauled kernel clears it by an order of
magnitude even on loaded CI runners); end-to-end timing is measured by
the in-session A/B of ``benchmarks/suite`` (``run.py`` and ``ab.py``).
"""

import time

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Hold, Passivate
from repro.sim.resources import FCFSServer, PSServer


class TestEventStorms:
    def test_many_simultaneous_events_fire_in_fifo_order(self):
        sim = Simulator()
        order = []
        count = 5000
        for i in range(count):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(count))
        assert sim.events_fired == count
        assert sim.pending_events == 0

    def test_heavy_cancellation_does_not_leak(self):
        sim = Simulator()
        events = [sim.schedule(float(i % 50) + 1.0, lambda: None) for i in range(10000)]
        for event in events[::2]:
            sim.cancel(event)
        assert sim.pending_events == 5000
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_fired == 5000

    def test_cascading_zero_delay_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 2000:
                sim.schedule(0.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert len(fired) == 2001
        assert sim.now == 0.0
        assert sim.events_fired == 2001


class TestProcessStorms:
    def test_thousand_processes_interleave(self):
        sim = Simulator()
        done = []

        def worker(i):
            for _ in range(3):
                yield Hold(1.0 + (i % 7) * 0.1)
            done.append(i)

        for i in range(1000):
            sim.launch(worker(i))
        sim.run()
        assert len(done) == 1000
        # Budget: one activation + three hold resumes per process.
        assert sim.events_fired == 1000 * 4

    def test_ps_server_with_hundreds_of_concurrent_jobs(self):
        sim = Simulator()
        cpu = PSServer(sim)
        count = 300

        def job(i):
            yield cpu.service(1.0)

        for i in range(count):
            sim.launch(job(i))
        sim.run()
        # All identical demands arriving together finish together at
        # count * demand.
        assert sim.now == pytest.approx(count * 1.0, rel=1e-9)
        assert cpu.completions == count
        # Budget: activation + one *fired* completion + one resume per
        # job; the PS server's cancelled reschedules must never fire.
        assert sim.events_fired == count * 3

    def test_fcfs_long_queue_drains_in_order(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        finished = []

        def job(i):
            yield server.service(0.01)
            finished.append(i)

        for i in range(2000):
            sim.launch(job(i))
        sim.run()
        assert finished == list(range(2000))
        # Budget: activation + completion + resume per job.
        assert sim.events_fired == 2000 * 3

    def test_passivate_reactivate_waves(self):
        sim = Simulator()
        woken = []
        sleepers = []

        def sleeper(i):
            yield Passivate()
            woken.append(i)

        for i in range(500):
            sleepers.append(sim.launch(sleeper(i)))

        def wake_all():
            for process in sleepers:
                process.reactivate()

        sim.schedule(10.0, wake_all)
        sim.run()
        assert sorted(woken) == list(range(500))
        # Budget: activation + reactivation resume per sleeper, plus the
        # single wake_all event.
        assert sim.events_fired == 500 * 2 + 1


class TestLongRuns:
    def test_clock_precision_over_many_events(self):
        # Accumulating 10^5 small holds should not drift measurably.
        sim = Simulator()

        def ticker():
            for _ in range(100_000):
                yield Hold(0.1)

        sim.launch(ticker())
        sim.run()
        assert sim.now == pytest.approx(10_000.0, rel=1e-9)
        assert sim.events_fired == 100_001


@pytest.mark.perf
class TestThroughputFloor:
    """A conservative events/sec floor for the kernel hot path.

    The floor is ~10x below what the overhauled kernel sustains on a
    developer machine, so it only trips on genuine order-of-magnitude
    regressions (e.g. an accidental O(n) scan per pop), never on CI
    noise.  Same-session timing comparison is ``benchmarks/suite/ab.py``.
    """

    FLOOR_EVENTS_PER_SEC = 25_000.0

    def test_mixed_workload_meets_floor(self):
        sim = Simulator(seed=7)
        cpu = PSServer(sim, name="cpu")
        disk = FCFSServer(sim, name="disk", servers=2)

        def worker(i):
            for _ in range(60):
                yield Hold(0.1 + (i % 13) * 0.01)
                yield cpu.service(0.05 + (i % 7) * 0.01)
                yield disk.service(0.02 + (i % 5) * 0.005)

        for i in range(100):
            sim.launch(worker(i), name=f"w{i}")
        start = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - start
        assert sim.events_fired == 100 * (1 + 60 * 5)
        rate = sim.events_fired / wall
        assert rate > self.FLOOR_EVENTS_PER_SEC, (
            f"kernel throughput collapsed: {rate:,.0f} ev/s "
            f"(floor {self.FLOOR_EVENTS_PER_SEC:,.0f})"
        )
