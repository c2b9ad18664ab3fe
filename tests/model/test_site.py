"""Unit tests for the DB-site service-center bundle."""

import dataclasses
import gc
import random
import weakref

import pytest

from repro.model.config import DISK_PER_DISK, DISK_SHARED, paper_defaults
from repro.model.query import Query
from repro.model.site import DBSite
from repro.model.workload import WorkloadGenerator
from repro.sim.engine import Simulator
from repro.sim.errors import ProcessError
from repro.sim.process import Process
from repro.telemetry.events import TraceMessage


class TestStructure:
    def test_per_disk_organization_builds_separate_queues(self):
        sim = Simulator()
        site = DBSite(sim, paper_defaults(), index=0)
        assert len(site.disks) == 2
        assert all(d.servers == 1 for d in site.disks)

    def test_shared_organization_builds_one_multiserver(self):
        sim = Simulator()
        config = dataclasses.replace(paper_defaults(), disk_organization=DISK_SHARED)
        site = DBSite(sim, config, index=0)
        assert len(site.disks) == 1
        assert site.disks[0].servers == 2

    def test_single_disk_site(self):
        sim = Simulator()
        config = paper_defaults().with_site(num_disks=1)
        site = DBSite(sim, config, index=0)
        assert len(site.disks) == 1


def make_query(config, reads, class_index=0):
    return Query(
        class_index=class_index,
        spec=config.classes[class_index],
        home_site=0,
        estimated_reads=float(reads),
        actual_reads=reads,
        io_bound=class_index == 0,
    )


def launch_visit(sim, site, query, rng, reads, catch=()):
    """Run *reads* read cycles of *query* at *site* in a fresh process."""
    received = []

    def visit():
        try:
            yield from site.execute(query, WorkloadGenerator(sim, site.config), rng, reads)
        except catch as exc:
            received.append((sim.now, exc))

    return sim.launch(visit()), received


class TestService:
    def test_disk_service_spreads_over_disks(self):
        sim = Simulator()
        config = paper_defaults()
        site = DBSite(sim, config, index=0)
        launch_visit(sim, site, make_query(config, 60), random.Random(0), 60)
        sim.run()
        counts = [d.completions for d in site.disks]
        assert sum(counts) == 60
        assert all(c > 10 for c in counts), f"unbalanced routing: {counts}"
        assert site.cpu.completions == 60

    def test_cpu_service(self):
        sim = Simulator()
        # One disk and a fixed disk time: the burst is the stream's only draw.
        config = paper_defaults().with_site(disk_time_dev=0.0, num_disks=1)
        site = DBSite(sim, config, index=0, cpu_speed=2.0)
        query = make_query(config, 1, class_index=1)
        launch_visit(sim, site, query, random.Random(3), 1)
        sim.run()
        burst = random.Random(3).expovariate(1.0 / query.spec.page_cpu_time) / 2.0
        assert sim.now == pytest.approx(1.0 + burst)
        assert site.cpu.completions == 1
        assert query.service_acquired == 1.0 + burst
        assert query.started_at == 0.0
        assert query.finished_at == sim.now

    def test_zero_reads_take_no_time(self):
        sim = Simulator()
        config = paper_defaults()
        site = DBSite(sim, config, index=0)
        query = make_query(config, 0)
        launch_visit(sim, site, query, random.Random(0), 0)
        sim.run()
        assert sim.now == 0.0
        assert sim.events_fired == 1
        assert query.finished_at == 0.0
        assert site.disk_completions == 0


    def test_a_visit_fires_only_its_completions(self):
        sim = Simulator()
        config = paper_defaults().with_site(disk_time_dev=0.0, num_disks=1)
        site = DBSite(sim, config, index=0)
        reads = 5
        query = make_query(config, reads)
        labels = []
        sim.bus.subscribe(TraceMessage, lambda message: labels.append(message.label))
        rng = random.Random(4)
        process, _ = launch_visit(sim, site, query, rng, reads)
        sim.run()
        # Two completions per page plus the activation; no resume per
        # burst or per visit.
        assert sim.events_fired == 2 * reads + 1
        assert labels.count("site0.disk0:done") == reads
        assert labels.count("site0.cpu:done") == reads
        assert labels.count(f"{process.name}:resume") == 1
        assert process.terminated
        # A zero-width disk time draws nothing: the CPU bursts alone
        # moved the query's stream.
        reference = random.Random(4)
        for _ in range(reads):
            reference.expovariate(1.0 / query.spec.page_cpu_time)
        assert rng.getstate() == reference.getstate()

    def test_draws_follow_the_paper_distributions(self):
        # Per page: U(disk_time ± dev) as rng.uniform draws it, the disk
        # (two disk queues), then the CPU burst; service_acquired adds
        # them one by one.
        sim = Simulator()
        config = paper_defaults()
        site = DBSite(sim, config, index=0, cpu_speed=2.0)
        reads = 20
        query = make_query(config, reads, class_index=1)
        launch_visit(sim, site, query, random.Random(9), reads)
        sim.run()
        reference = random.Random(9)
        expected = 0.0
        for _ in range(reads):
            expected += reference.uniform(0.8, 1.2)
            reference.randrange(2)
            expected += reference.expovariate(1.0 / query.spec.page_cpu_time) / 2.0
        assert query.service_acquired == expected


class Crash(Exception):
    pass


class TestInterruptRace:
    """A site crash interrupts a visit in service or at a completion."""

    def setup_method(self):
        self.sim = Simulator()
        self.config = paper_defaults().with_site(disk_time_dev=0.0)
        self.site = DBSite(self.sim, self.config, index=0)
        self.query = make_query(self.config, 3)

    def assert_idle(self):
        for server in [self.site.cpu, *self.site.disks]:
            assert server.busy.value == 0
            assert server.population.value == 0

    def test_interrupt_in_service(self):
        sim, site = self.sim, self.site
        process, received = launch_visit(
            sim, site, self.query, random.Random(0), 3, catch=Crash
        )

        def crash():
            site.abort_all()
            process.interrupt(Crash())

        sim.schedule(0.5, crash)
        sim.run()
        assert [when for when, _ in received] == [0.5]
        assert process.terminated
        assert sim.now == 0.5
        # activation, the crash, the throw: the flushed completion never fires
        assert sim.events_fired == 3
        assert site.disk_completions == 0
        assert self.query.service_acquired == 0.0
        assert self.query.finished_at is None
        self.assert_idle()

    def test_interrupt_at_the_completion_instant(self):
        # The crash is scheduled at t/2 for t, so its sequence number
        # comes after the disk completion's (rented at 0): it fires just
        # after the completion, which has already added the disk burst
        # and joined the CPU.  It flushes the site before it interrupts,
        # as the fault injector does.
        sim, site = self.sim, self.site
        process, received = launch_visit(
            sim, site, self.query, random.Random(0), 3, catch=Crash
        )

        def crash():
            site.abort_all()
            process.interrupt(Crash())

        sim.schedule(0.5, lambda: sim.schedule(0.5, crash))
        sim.run()
        assert [when for when, _ in received] == [1.0]
        assert process.terminated
        assert sim.now == 1.0
        # activation (t=0), the t/2 event (0.5), the disk completion,
        # the crash and the throw (all at 1.0): 5.  The CPU completion
        # that the disk completion rented is flushed and never fires.
        assert sim.events_fired == 5
        assert site.disk_completions == 1
        assert site.cpu.completions == 0
        assert self.query.service_acquired == 1.0
        self.assert_idle()

    def test_interrupt_without_the_flush_fails_at_the_next_completion(self):
        # Interrupting without Server.abort_all leaves the CPU serving
        # the visit; its completion must not resume a finished process
        # quietly.
        sim, site = self.sim, self.site
        process, received = launch_visit(
            sim, site, self.query, random.Random(0), 3, catch=Crash
        )
        sim.schedule(0.5, lambda: sim.schedule(0.5, lambda: process.interrupt(Crash())))
        with pytest.raises(ProcessError, match=r"resume_now\(\) on a terminated process"):
            sim.run()
        assert [when for when, _ in received] == [1.0]
        assert process.terminated
        assert sim.now > 1.0
        assert site.cpu.completions == 1


class _Probe(Process):
    """A process that can be weakly referenced (``Process`` has slots)."""


class TestReclaim:
    def test_a_finished_process_needs_no_cyclic_collector(self):
        sim = Simulator()
        config = paper_defaults()
        site = DBSite(sim, config, index=0)
        query = make_query(config, 4)
        workload = WorkloadGenerator(sim, config)
        generator = site.execute(query, workload, random.Random(5), 4)
        process = _Probe(sim, generator)
        process.activate()
        refs = [weakref.ref(process), weakref.ref(generator)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim.run()
            assert process.terminated
            del process, generator
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()


class TestStatistics:
    def test_disk_utilization_average(self):
        sim = Simulator()
        config = paper_defaults().with_site(disk_time_dev=0.0)
        site = DBSite(sim, config, index=0)
        launch_visit(sim, site, make_query(config, 10), random.Random(1), 10)
        sim.run()
        # One reader: 10 reads of 1.0 each over the elapsed time, split
        # over 2 disks.
        assert site.disk_utilization == pytest.approx(10.0 / (2 * sim.now))

    def test_reset_statistics(self):
        sim = Simulator()
        config = paper_defaults()
        site = DBSite(sim, config, index=0)
        launch_visit(sim, site, make_query(config, 1), random.Random(2), 1)
        sim.run()
        site.reset_statistics()
        assert site.disk_completions == 0
        assert site.cpu.completions == 0
