"""The kernel's ``TraceMessage`` stream is opt-in per event type."""

from repro.sim.engine import Simulator
from repro.sim.process import Hold
from repro.telemetry.events import TraceMessage


def _labelled_workload(sim):
    def proc():
        yield Hold(1.0)
        yield Hold(2.0)

    sim.launch(proc(), name="worker")


class TestTraceMessages:
    def test_no_trace_messages_without_explicit_subscriber(self):
        sim = Simulator()
        seen = []
        # A catch-all subscriber does NOT opt in to the high-volume stream.
        sim.bus.subscribe_all(seen.append)
        _labelled_workload(sim)
        sim.run(until=10.0)
        assert not any(isinstance(e, TraceMessage) for e in seen)
