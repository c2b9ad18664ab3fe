"""Tests for the kernel self-profiler (`repro.telemetry.profile`).

The cardinal rule: profiling must observe, never perturb — a profiled
run's `SystemResults` are exactly the unprofiled run's.
"""

from collections import Counter

import pytest

from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.sim.events import EventQueue
from repro.telemetry.profile import KernelProfiler, PhaseReport, main


def build(tiny_config, policy="BNQRD", seed=11):
    return DistributedDatabase(tiny_config, make_policy(policy), seed=seed)


class TestNonPerturbation:
    def test_profiled_results_equal_unprofiled(self, tiny_config):
        plain = build(tiny_config).run(warmup=50.0, duration=300.0)
        system = build(tiny_config)
        with KernelProfiler(system) as profiler:
            profiled = system.run(warmup=50.0, duration=300.0)
        assert profiled == plain
        assert profiler.report().total > 0.0

    def test_uninstall_restores_the_system(self, tiny_config):
        system = build(tiny_config)
        queue = system.sim._queue
        profiler = KernelProfiler(system)
        profiler.install()
        # The queue is instrumented in place: same object, timed class.
        assert system.sim._queue is queue
        assert type(queue) is not EventQueue
        profiler.uninstall()
        assert system.sim._queue is queue
        assert type(queue) is EventQueue
        assert "select" not in system.policy.__dict__
        assert "emit" not in system.sim.bus.__dict__
        # The restored system still runs.
        system.run(warmup=10.0, duration=50.0)


class TestPhaseAttribution:
    def test_phases_cover_the_total(self, tiny_config):
        system = build(tiny_config)
        with KernelProfiler(system) as profiler:
            system.run(warmup=50.0, duration=300.0)
        report = profiler.report()
        attributed = sum(seconds for _, seconds in report.phases())
        assert attributed == pytest.approx(report.total, rel=1e-9)
        assert report.queue_calls > 0
        assert report.policy_calls > 0
        assert report.dispatch >= 0.0

    def test_counts_rents_from_processes_and_servers(
        self, tiny_config, monkeypatch
    ):
        # Processes and servers cache the queue object when they are
        # built; the profiler must still see every operation they make.
        system = build(tiny_config)
        counts: Counter = Counter()
        for name in (
            "push", "rent", "recycle", "cancel", "peek_time", "pop",
            "pop_due", "clear",
        ):
            def counted(queue, *args, _original=getattr(EventQueue, name),
                        _name=name):
                counts[_name] += 1
                return _original(queue, *args)

            monkeypatch.setattr(EventQueue, name, counted)
        with KernelProfiler(system) as profiler:
            system.run(warmup=50.0, duration=300.0)
        assert counts["rent"] > 0
        assert profiler.report().queue_calls == sum(counts.values())

    def test_telemetry_phase_is_zero_when_disabled(self, tiny_config):
        system = build(tiny_config)
        with KernelProfiler(system) as profiler:
            system.run(warmup=50.0, duration=300.0)
        report = profiler.report()
        assert report.emit_calls == 0
        assert report.telemetry == 0.0

    def test_report_while_installed_is_an_error(self, tiny_config):
        system = build(tiny_config)
        profiler = KernelProfiler(system)
        profiler.install()
        try:
            with pytest.raises(ValueError):
                profiler.report()
        finally:
            profiler.uninstall()

    def test_format_lists_every_phase(self, tiny_config):
        system = build(tiny_config)
        with KernelProfiler(system) as profiler:
            system.run(warmup=10.0, duration=50.0)
        text = profiler.report().format()
        for phase in ("queue_ops", "policy", "telemetry", "dispatch"):
            assert phase in text

    def test_phase_report_order_is_fixed(self):
        report = PhaseReport(
            total=1.0,
            queue_ops=0.2,
            policy=0.1,
            telemetry=0.0,
            dispatch=0.7,
            queue_calls=10,
            policy_calls=5,
            emit_calls=0,
        )
        assert [name for name, _ in report.phases()] == [
            "queue_ops",
            "policy",
            "telemetry",
            "dispatch",
        ]


class TestCli:
    def test_smoke(self, capsys):
        exit_code = main(
            ["--policy", "BNQRD", "--seed", "3", "--warmup", "20",
             "--duration", "100"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "queue_ops" in out
        assert "dispatch" in out

    def test_with_tracing_counts_emits(self, capsys):
        exit_code = main(
            ["--warmup", "20", "--duration", "100", "--spans", "--decisions"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
