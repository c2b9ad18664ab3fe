"""Unit tests for the process layer (generators driven by the kernel)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import ProcessError
from repro.sim.process import Hold, Passivate, ProcessState, WaitFor


class TestHold:
    def test_sequential_holds(self):
        sim = Simulator()
        times = []

        def proc():
            for _ in range(3):
                yield Hold(1.5)
                times.append(sim.now)

        sim.launch(proc())
        sim.run()
        assert times == [1.5, 3.0, 4.5]

    def test_zero_hold_keeps_time(self):
        sim = Simulator()
        times = []

        def proc():
            yield Hold(0.0)
            times.append(sim.now)

        sim.launch(proc())
        sim.run()
        assert times == [0.0]

    def test_negative_hold_raises(self):
        sim = Simulator()

        def proc():
            yield Hold(-1.0)

        sim.launch(proc())
        with pytest.raises(Exception):
            sim.run()


class TestPassivate:
    def test_reactivate_delivers_value(self):
        sim = Simulator()
        got = []

        def sleeper():
            value = yield Passivate()
            got.append((sim.now, value))

        process = sim.launch(sleeper())
        sim.schedule(3.0, lambda: process.reactivate("wake"))
        sim.run()
        assert got == [(3.0, "wake")]

    def test_reactivate_with_delay(self):
        sim = Simulator()
        got = []

        def sleeper():
            yield Passivate()
            got.append(sim.now)

        process = sim.launch(sleeper())
        sim.schedule(1.0, lambda: process.reactivate(delay=2.0))
        sim.run()
        assert got == [3.0]

    def test_reactivate_non_passive_raises(self):
        sim = Simulator()

        def proc():
            yield Hold(10.0)

        process = sim.launch(proc())
        sim.run(until=1.0)
        with pytest.raises(ProcessError):
            process.reactivate()

    def test_state_is_passive_while_sleeping(self):
        sim = Simulator()

        def sleeper():
            yield Passivate()

        process = sim.launch(sleeper())
        sim.run(until=1.0)
        assert process.state is ProcessState.PASSIVE


class TestWaitFor:
    def test_resume_via_callback(self):
        sim = Simulator()
        got = []
        resumers = []

        def proc():
            value = yield WaitFor(resumers.append)
            got.append((sim.now, value))

        sim.launch(proc())
        sim.run(until=1.0)
        assert len(resumers) == 1
        sim.schedule(4.0, lambda: resumers[0]("done"))
        sim.run()
        assert got == [(5.0, "done")]

    def test_immediate_resume(self):
        sim = Simulator()
        got = []

        def proc():
            value = yield WaitFor(lambda resume: resume(42))
            got.append(value)

        sim.launch(proc())
        sim.run()
        assert got == [42]


class TestComposition:
    def test_yield_from_subbehaviour(self):
        sim = Simulator()
        log = []

        def step(name, duration):
            yield Hold(duration)
            log.append((name, sim.now))

        def proc():
            yield from step("a", 1.0)
            yield from step("b", 2.0)

        sim.launch(proc())
        sim.run()
        assert log == [("a", 1.0), ("b", 3.0)]

    def test_return_value_captured(self):
        # A sub-behaviour's return value reaches its caller through
        # ``yield from``; the process's own return value is discarded.
        sim = Simulator()
        captured = []

        def sub():
            yield Hold(1.0)
            return "result"

        def proc():
            captured.append((yield from sub()))

        process = sim.launch(proc())
        sim.run()
        assert process.terminated
        assert captured == ["result"]


class TestErrors:
    def test_yielding_non_command_raises(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.launch(proc())
        with pytest.raises(ProcessError):
            sim.run()

    def test_activate_twice_raises(self):
        sim = Simulator()

        def proc():
            yield Hold(1.0)

        process = sim.launch(proc())
        with pytest.raises(ProcessError):
            process.activate()

    def test_interrupt_delivers_exception(self):
        sim = Simulator()
        caught = []

        def proc():
            try:
                yield Hold(100.0)
            except RuntimeError as exc:
                caught.append((sim.now, str(exc)))

        process = sim.launch(proc())
        sim.schedule(2.0, lambda: process.interrupt(RuntimeError("preempted")))
        sim.run()
        assert caught == [(2.0, "preempted")]

    def test_interrupt_supersedes_same_instant_resume(self):
        # reactivate() at the current instant puts the resume in the
        # queue's same-instant lane; an interrupt at that instant must
        # retract it, throw exactly once, and never fire the stale resume.
        sim = Simulator()
        log = []

        def proc():
            try:
                yield Passivate()
                log.append(("resumed", sim.now))
            except RuntimeError as exc:
                log.append(("caught", sim.now, str(exc)))
            yield Hold(1.0)
            log.append(("done", sim.now))

        process = sim.launch(proc())

        def poke():
            process.reactivate("stale")
            assert len(sim._queue._lane) == 1
            process.interrupt(RuntimeError("preempted"))

        sim.schedule(2.0, poke)
        sim.run()
        assert log == [("caught", 2.0, "preempted"), ("done", 3.0)]
        assert process.terminated
        assert sim.pending_events == 0
        # launch, poke, throw, the Hold(1.0) resume: the stale resume
        # never fired.
        assert sim.events_fired == 4

    def test_interrupt_terminated_raises(self):
        sim = Simulator()

        def proc():
            yield Hold(1.0)

        process = sim.launch(proc())
        sim.run()
        with pytest.raises(ProcessError):
            process.interrupt(RuntimeError("too late"))

    def test_uncaught_process_exception_propagates(self):
        sim = Simulator()

        def proc():
            yield Hold(1.0)
            raise ValueError("model bug")

        sim.launch(proc())
        with pytest.raises(ValueError, match="model bug"):
            sim.run()
