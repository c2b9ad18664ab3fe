"""Unit tests for the service-center resources (FCFS, PS, delay)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import ResourceError
from repro.sim.process import Hold
from repro.sim.resources import DelayStation, FCFSServer, PSServer


def run_jobs(sim, server, arrivals, responses=None):
    """Launch jobs as (arrival_time, demand, tag); collect completions.

    If *responses* is a dict, each job also stores its time at the
    station (from yielding the request to being resumed) under its tag.
    """
    done = []

    def job(delay, demand, tag):
        if delay > 0:
            yield Hold(delay)
        arrived = sim.now
        yield server.service(demand)
        done.append((tag, sim.now))
        if responses is not None:
            responses[tag] = sim.now - arrived

    for delay, demand, tag in arrivals:
        sim.launch(job(delay, demand, tag))
    sim.run()
    return done


class TestFCFSSingle:
    def test_single_job_takes_demand(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(sim, server, [(0.0, 3.0, "a")])
        assert done == [("a", 3.0)]

    def test_jobs_served_in_order(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(
            sim, server, [(0.0, 2.0, "a"), (0.5, 2.0, "b"), (1.0, 2.0, "c")]
        )
        assert done == [("a", 2.0), ("b", 4.0), ("c", 6.0)]

    def test_short_job_does_not_preempt(self):
        # FCFS: a tiny job behind a big one still waits.
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(sim, server, [(0.0, 10.0, "big"), (1.0, 0.1, "small")])
        assert done == [("big", 10.0), ("small", 10.1)]

    def test_waiting_time_recorded(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        responses = {}
        run_jobs(sim, server, [(0.0, 2.0, "a"), (0.0, 2.0, "b")], responses)
        # a waits 0, b waits 2: waiting time is response minus demand.
        waits = {tag: response - 2.0 for tag, response in responses.items()}
        assert waits == {"a": pytest.approx(0.0), "b": pytest.approx(2.0)}

    def test_utilization(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)

        def job():
            yield server.service(3.0)

        sim.launch(job())
        sim.run(until=6.0)
        assert server.utilization() == pytest.approx(0.5)

    def test_completions_counted(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        run_jobs(sim, server, [(0.0, 1.0, "a"), (0.0, 1.0, "b")])
        assert server.completions == 2

    def test_zero_demand_completes_immediately(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        done = run_jobs(sim, server, [(1.0, 0.0, "a")])
        assert done == [("a", 1.0)]

    def test_invalid_demand_rejected(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        with pytest.raises(ResourceError):
            server.service(-1.0)
        with pytest.raises(ResourceError):
            server.service(float("nan"))

    def test_invalid_server_count_rejected(self):
        sim = Simulator()
        with pytest.raises(ResourceError):
            FCFSServer(sim, servers=0)


class TestFCFSMultiServer:
    def test_two_servers_run_in_parallel(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=2)
        done = run_jobs(sim, server, [(0.0, 4.0, "a"), (0.0, 4.0, "b")])
        assert done == [("a", 4.0), ("b", 4.0)]

    def test_third_job_waits_for_first_free_server(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=2)
        done = run_jobs(
            sim, server, [(0.0, 4.0, "a"), (0.0, 2.0, "b"), (0.0, 3.0, "c")]
        )
        # b frees a server at 2; c runs 2..5.
        assert ("b", 2.0) in done
        assert ("c", 5.0) in done

    def test_queue_depth_and_busy(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=2)

        def job(demand):
            yield server.service(demand)

        for _ in range(4):
            sim.launch(job(10.0))
        sim.run(until=1.0)
        assert server.busy_servers == 2
        assert server.queue_depth == 2

    def test_multiserver_utilization_normalized(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=2)
        run_jobs(sim, server, [(0.0, 4.0, "a"), (0.0, 4.0, "b")])
        # Both servers busy the whole 4 units: utilization 1.0 per server.
        assert server.utilization() == pytest.approx(1.0)


class TestPSServer:
    def test_single_job_takes_demand(self):
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(sim, cpu, [(0.0, 3.0, "a")])
        assert done == [("a", 3.0)]

    def test_two_equal_jobs_share_equally(self):
        # Two jobs of demand 2 arriving together: each sees rate 1/2, both
        # finish at t=4.
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(sim, cpu, [(0.0, 2.0, "a"), (0.0, 2.0, "b")])
        assert [t for _, t in done] == pytest.approx([4.0, 4.0])

    def test_staggered_arrivals_exact_times(self):
        # A (demand 2) at t=0; B (demand 2) at t=1.  A has 1 unit left at
        # t=1, then shares: A done at t=3; B then runs alone, done at t=4.
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(sim, cpu, [(0.0, 2.0, "a"), (1.0, 2.0, "b")])
        assert done == [("a", pytest.approx(3.0)), ("b", pytest.approx(4.0))]

    def test_short_job_overtakes_long_job(self):
        # PS lets a short job finish before an earlier long one.
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(sim, cpu, [(0.0, 10.0, "long"), (1.0, 1.0, "short")])
        names = [n for n, _ in done]
        assert names == ["short", "long"]
        # short: enters at 1 with demand 1 at rate 1/2 -> done at 3.
        assert done[0][1] == pytest.approx(3.0)
        # long: 1 unit before t=1, 1 unit shared during [1,3], rest alone.
        assert done[1][1] == pytest.approx(11.0)

    def test_work_conservation(self):
        # Total busy time equals total demand when the server never idles.
        sim = Simulator()
        cpu = PSServer(sim)
        demands = [1.0, 2.0, 3.0]
        run_jobs(sim, cpu, [(0.0, d, str(i)) for i, d in enumerate(demands)])
        assert sim.now == pytest.approx(sum(demands))

    def test_busy_indicator(self):
        sim = Simulator()
        cpu = PSServer(sim)

        def job():
            yield Hold(1.0)
            yield cpu.service(2.0)

        sim.launch(job())
        sim.run(until=4.0)
        # Busy during [1, 3] out of [0, 4].
        assert cpu.utilization() == pytest.approx(0.5)

    def test_population_average(self):
        sim = Simulator()
        cpu = PSServer(sim)
        population = cpu.observe_population()
        run_jobs(sim, cpu, [(0.0, 2.0, "a"), (0.0, 2.0, "b")])
        # 2 jobs present during the whole run.
        assert population.time_average == pytest.approx(2.0)

    def test_many_jobs_all_finish(self):
        sim = Simulator()
        cpu = PSServer(sim)
        done = run_jobs(
            sim, cpu, [(i * 0.1, 1.0 + (i % 3), str(i)) for i in range(50)]
        )
        assert len(done) == 50
        assert cpu.job_count == 0


class TestDelayStation:
    def test_no_queueing(self):
        sim = Simulator()
        delay = DelayStation(sim)
        done = run_jobs(
            sim, delay, [(0.0, 5.0, "a"), (0.0, 5.0, "b"), (0.0, 5.0, "c")]
        )
        assert [t for _, t in done] == pytest.approx([5.0, 5.0, 5.0])

    def test_response_equals_demand(self):
        sim = Simulator()
        delay = DelayStation(sim)
        responses = {}
        run_jobs(sim, delay, [(0.0, 3.0, "a"), (1.0, 2.0, "b")], responses)
        assert responses == {"a": pytest.approx(3.0), "b": pytest.approx(2.0)}
        assert delay.completions == 2


class TestPopulationOptIn:
    def test_unobserved_by_default(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        run_jobs(sim, server, [(0.0, 2.0, "a"), (0.0, 1.0, "b")])
        assert server.population is None
        assert server.completions == 2

    def test_observing_is_idempotent(self):
        sim = Simulator()
        cpu = PSServer(sim)
        population = cpu.observe_population()
        assert cpu.population is population
        run_jobs(sim, cpu, [(0.0, 1.0, "a")])
        assert cpu.observe_population() is population

    @pytest.mark.parametrize("station", [FCFSServer, PSServer, DelayStation])
    def test_a_late_monitor_is_refused(self, station):
        # Started after the clock moved, the monitor would begin at zero
        # with customers present and under-count without any error.
        sim = Simulator()
        server = station(sim)
        run_jobs(sim, server, [(0.0, 2.0, "a")])
        with pytest.raises(ResourceError, match="before the clock moves"):
            server.observe_population()
        assert server.population is None


class TestStatisticsReset:
    def test_reset_truncates_everything(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        population = server.observe_population()
        run_jobs(sim, server, [(0.0, 2.0, "a")])
        server.reset_statistics()
        assert server.completions == 0
        assert population.time_average == 0.0
        assert server.utilization() == 0.0
        # Statistics restart from the reset instant: one more job that
        # queues behind nothing is the only thing counted afterwards.
        responses = {}
        run_jobs(sim, server, [(1.0, 2.0, "b")], responses)
        assert responses == {"b": pytest.approx(2.0)}
        assert server.completions == 1
        assert server.utilization() == pytest.approx(2.0 / 3.0)
