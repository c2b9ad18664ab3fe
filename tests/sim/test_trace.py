"""Unit tests for the tracing utilities."""

import pytest

from repro.model.config import paper_defaults
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.sim.trace import QueryTracer


class TestQueryTracer:
    @pytest.fixture
    def traced_system(self):
        config = paper_defaults(num_sites=3, mpl=4, think_time=50.0)
        system = DistributedDatabase(config, make_policy("LERT"), seed=8)
        tracer = QueryTracer()
        tracer.attach(system)
        # No warmup: the metrics counter resets at warmup end while the
        # tracer keeps everything, so equality only holds from t=0.
        system.run(warmup=0.0, duration=700.0)
        return system, tracer

    def test_records_every_completion(self, traced_system):
        system, tracer = traced_system
        assert len(tracer) == system.metrics.completions

    def test_record_fields_consistent(self, traced_system):
        _, tracer = traced_system
        record = tracer.records[0]
        assert record.completed_at >= record.created_at
        assert record.waiting >= 0 or record.waiting == pytest.approx(0, abs=1e-9)
        assert record.remote == (record.execution_site != record.home_site)

    def test_slowest_sorted(self, traced_system):
        _, tracer = traced_system
        slowest = tracer.slowest(5)
        waits = [r.waiting for r in slowest]
        assert waits == sorted(waits, reverse=True)

    def test_by_site_partition(self, traced_system):
        system, tracer = traced_system
        total = sum(
            len(tracer.by_site(s)) for s in range(system.config.num_sites)
        )
        assert total == len(tracer)

    def test_mean_waiting_by_class(self, traced_system):
        _, tracer = traced_system
        overall = tracer.mean_waiting()
        io = tracer.mean_waiting("io")
        cpu = tracer.mean_waiting("cpu")
        low, high = min(io, cpu), max(io, cpu)
        assert low - 1e-9 <= overall <= high + 1e-9
        assert tracer.mean_waiting("nonexistent") == 0.0

    def test_remote_records_transfer_delays(self, traced_system):
        _, tracer = traced_system
        for record in tracer.remote_records()[:20]:
            assert record.transfer_out_delay > 0
            assert record.return_delay > 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            QueryTracer(capacity=0)
