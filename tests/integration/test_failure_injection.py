"""Failure injection: the kernel and model must fail loudly, not corrupt.

A simulation that swallows model errors produces silently wrong science.
These tests inject faults at every layer and verify they surface as the
original exceptions (with the simulator left in a diagnosable state), and
that recoverable interruptions (the migration-style interrupt) do not
corrupt resource accounting.
"""

import pytest

from repro.model.config import paper_defaults
from repro.model.system import DistributedDatabase
from repro.policies.base import AllocationPolicy
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator
from repro.sim.errors import ProcessError
from repro.sim.process import Hold
from repro.sim.resources import FCFSServer, PSServer


class ExplodingPolicy(AllocationPolicy):
    """Raises after a fixed number of decisions."""

    name = "EXPLODING"

    def __init__(self, after: int) -> None:
        super().__init__()
        self.after = after
        self.decisions = 0

    def select(self, query, view):
        self.decisions += 1
        if self.decisions > self.after:
            raise RuntimeError("policy blew up")
        return view.arrival_site


class TestModelFaults:
    def test_policy_exception_propagates(self, tiny_config):
        system = DistributedDatabase(tiny_config, ExplodingPolicy(after=5), seed=1)
        with pytest.raises(RuntimeError, match="policy blew up"):
            system.run(warmup=0.0, duration=500.0)

    def test_clock_remains_valid_after_fault(self, tiny_config):
        system = DistributedDatabase(tiny_config, ExplodingPolicy(after=5), seed=1)
        with pytest.raises(RuntimeError):
            system.run(warmup=0.0, duration=500.0)
        # The failure happened mid-run: time advanced but never beyond the
        # horizon, and the simulator can still report state.
        assert 0.0 <= system.sim.now <= 500.0
        assert system.sim.pending_events >= 0

    def test_ring_delivery_exception_propagates(self, tiny_config):
        from repro.model.ring import Message, TokenRing

        sim = Simulator()
        ring = TokenRing(sim, 2)

        def bad_deliver():
            raise ValueError("corrupt message")

        ring.send(Message(0, 1, 1.0, deliver=bad_deliver))
        with pytest.raises(ValueError, match="corrupt message"):
            sim.run()


class TestKernelFaults:
    def test_exception_in_service_completion_keeps_server_consistent(self):
        sim = Simulator()
        server = FCFSServer(sim, servers=1)
        state = {"fail": True}

        def job_one():
            yield server.service(1.0)
            if state["fail"]:
                raise RuntimeError("post-service failure")

        def job_two():
            yield Hold(0.5)
            yield server.service(1.0)

        sim.launch(job_one())
        sim.launch(job_two())
        with pytest.raises(RuntimeError):
            sim.run()
        # job_one's completion already freed the server before the model
        # code raised; job_two can still be served after the failure.
        state["fail"] = False
        sim.run()
        assert server.completions == 2

    def test_interrupt_during_hold_releases_nothing(self):
        sim = Simulator()
        cpu = PSServer(sim)
        finished = []

        def victim():
            try:
                yield Hold(100.0)
            except TimeoutError:
                pass
            yield cpu.service(1.0)
            finished.append(sim.now)

        process = sim.launch(victim())
        sim.schedule(5.0, lambda: process.interrupt(TimeoutError()))
        sim.run()
        assert finished == [pytest.approx(6.0)]
        assert cpu.completions == 1

    def test_second_interrupt_supersedes_first(self):
        # Interrupting an already-interrupted (but not yet resumed) process
        # replaces the pending exception — the latest interrupt wins.
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield Hold(100.0)
            except RuntimeError as exc:
                caught.append(str(exc))

        process = sim.launch(sleeper())
        sim.run(until=0.0)
        process.interrupt(RuntimeError("one"))
        process.interrupt(RuntimeError("two"))
        sim.run()
        assert caught == ["two"]

    def test_interrupt_terminated_rejected(self):
        sim = Simulator()

        def quick():
            yield Hold(1.0)

        process = sim.launch(quick())
        sim.run()
        with pytest.raises(ProcessError):
            process.interrupt(RuntimeError("too late"))


class TestDeterministicRecovery:
    def test_rerun_after_fault_is_clean(self, tiny_config):
        # A crashed run must not poison a subsequent fresh system (no
        # global state leaks between Simulator instances).
        broken = DistributedDatabase(tiny_config, ExplodingPolicy(after=3), seed=9)
        with pytest.raises(RuntimeError):
            broken.run(warmup=0.0, duration=300.0)
        clean = DistributedDatabase(tiny_config, make_policy("LERT"), seed=9)
        results = clean.run(warmup=50.0, duration=300.0)
        assert results.completions > 0
