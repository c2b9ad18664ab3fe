"""Property-based tests (hypothesis) for the simulation kernel."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.monitor import Tally, TimeWeighted
from repro.sim.process import Hold
from repro.sim.resources import FCFSServer, PSServer

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
demands = st.floats(min_value=0.001, max_value=100.0, allow_nan=False)


@given(st.lists(times, min_size=1, max_size=60))
def test_event_queue_pops_in_nondecreasing_time_order(time_list):
    queue = EventQueue()
    for t in time_list:
        queue.push(Event(t, lambda: None))
    popped = [queue.pop_due(math.inf).time for _ in range(len(time_list))]
    assert popped == sorted(time_list)


@given(st.lists(st.tuples(times, st.booleans()), min_size=1, max_size=60))
def test_event_queue_len_matches_live_events(entries):
    queue = EventQueue()
    live = 0
    for t, keep in entries:
        event = queue.push(Event(t, lambda: None))
        if not keep:
            queue.cancel(event)
        else:
            live += 1
    assert len(queue) == live


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=2, max_size=100))
def test_tally_mean_between_min_and_max(data):
    tally = Tally()
    for x in data:
        tally.record(x)
    assert tally.minimum - 1e-9 <= tally.mean <= tally.maximum + 1e-9
    assert tally.variance >= 0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_time_weighted_average_within_value_range(segments):
    sim = Simulator()
    monitor = TimeWeighted(sim, initial=segments[0][1])
    t = 0.0
    values = [segments[0][1]]
    for duration, value in segments:
        t += duration
        sim.schedule_at(t, lambda v=value: monitor.set(v))
        values.append(value)
    sim.run(until=t + 1.0)
    average = monitor.time_average
    assert min(values) - 1e-9 <= average <= max(values) + 1e-9


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(times.filter(lambda x: x < 100), demands), min_size=1, max_size=25))
def test_fcfs_conserves_work(jobs):
    """Busy time integrated over the run equals total demand served."""
    sim = Simulator()
    server = FCFSServer(sim, servers=1)

    def job(arrival, demand):
        if arrival > 0:
            yield Hold(arrival)
        yield server.service(demand)

    for arrival, demand in jobs:
        sim.launch(job(arrival, demand))
    sim.run()
    total_demand = sum(d for _, d in jobs)
    busy_time = server.busy.time_average * sim.now
    assert busy_time == (
        math.inf if math.isinf(total_demand) else busy_time
    )  # guard, never inf here
    assert abs(busy_time - total_demand) < 1e-6 * max(1.0, total_demand)
    assert server.completions == len(jobs)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(times.filter(lambda x: x < 100), demands), min_size=1, max_size=25))
def test_ps_conserves_work_and_completes_everyone(jobs):
    sim = Simulator()
    cpu = PSServer(sim)

    def job(arrival, demand):
        if arrival > 0:
            yield Hold(arrival)
        yield cpu.service(demand)

    for arrival, demand in jobs:
        sim.launch(job(arrival, demand))
    sim.run()
    total_demand = sum(d for _, d in jobs)
    busy_time = cpu.busy.time_average * sim.now
    assert abs(busy_time - total_demand) < 1e-6 * max(1.0, total_demand)
    assert cpu.completions == len(jobs)
    assert cpu.job_count == 0


@settings(deadline=None, max_examples=30)
@given(
    st.lists(demands, min_size=2, max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_fcfs_multiserver_never_idles_servers_while_queueing(job_demands, servers):
    """At no observation instant may a job queue while a server is free."""
    sim = Simulator()
    server = FCFSServer(sim, servers=servers)
    violations = []

    def job(demand):
        yield server.service(demand)

    def inspector():
        while True:
            yield Hold(0.25)
            if server.queue_depth > 0 and server.busy_servers < servers:
                violations.append(sim.now)
            if server.completions == len(job_demands):
                return

    for demand in job_demands:
        sim.launch(job(demand))
    sim.launch(inspector())
    sim.run()
    assert violations == []
