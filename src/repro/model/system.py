"""The distributed database system: wiring, query life cycle, run control.

:class:`DistributedDatabase` assembles the full model of the paper's
Figure 1/Figure 2 — sites, terminals, token ring, load board, workload
generator, metrics — around one allocation policy, and exposes ``run()``
to produce a :class:`~repro.model.metrics.SystemResults`.

The query life cycle (Figure 2's flow) is implemented in
:meth:`DistributedDatabase.execute_query`:

1. the allocation policy picks an execution site from optimizer estimates
   and the load board;
2. the query is committed to that site on the load board;
3. if remote, the query descriptor crosses the token ring;
4. the query cycles ``actual_reads`` times through disk (FCFS) and CPU (PS);
5. if remote, the results cross the ring back to the home site;
6. the query is released from the load board and recorded by the metrics.

With a :class:`~repro.faults.plan.FaultPlan` installed (see
:meth:`DistributedDatabase.install_faults`) the life cycle runs through
:meth:`DistributedDatabase._execute_query_faulted` instead: allocation
only sees *available* sites (through a
:class:`~repro.model.view.SystemView`), a crash of the execution site
aborts the query and re-enters allocation with bounded retry and
exponential backoff, and subnet transfers consult the plan's message
faults.  Without a plan the plain path is taken and nothing changes —
byte-for-byte (a chaos-determinism test pins this).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from repro.faults.errors import NoAvailableSiteError, SiteCrashedError
from repro.model.config import SystemConfig
from repro.model.loadboard import LoadBoard, LoadView
from repro.model.metrics import MetricsCollector, SystemResults, summarize
from repro.model.query import Query
from repro.model.ring import Message
from repro.model.subnet import build_subnet
from repro.model.site import DBSite
from repro.model.view import SystemView
from repro.model.workload import WorkloadGenerator
from repro.workloads.driver import WorkloadDriver, start_workload
from repro.workloads.spec import WorkloadSpec, normalize_workload
from repro.policies.base import AllocationPolicy
from repro.sim.engine import Simulator
from repro.sim.process import Hold, WaitFor
from repro.sim.rng import bernoulli
from repro.telemetry.events import (
    AllocationDecided,
    MessageDropped,
    QueryAborted,
    QueryAllocated,
    QueryLost,
    QueryRetried,
    QueryTransferred,
    RunEnded,
    RunStarted,
    WarmupEnded,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan


class DistributedDatabase:
    """A fully-replicated distributed database system under one policy.

    Args:
        config: Model parameters (see :mod:`repro.model.config`).
        policy: The allocation policy instance to drive; it is bound to
            this system.
        seed: Master seed for every random stream in the run.
        faults: Optional fault plan to install at time 0.  ``None`` (and
            a no-op plan) leave the system on the plain, faultless query
            life cycle.
        workload: Optional workload specification.  ``None`` (and the
            default closed spec, which normalizes to ``None``) drives
            the system with the paper's closed terminals, byte-identical
            to the seed; an open spec launches its arrival processes
            instead.  Workloads bind at construction — the arrival
            processes start at time 0 — so there is no
            ``install_workload`` analogue of :meth:`install_faults`.
    """

    def __init__(
        self,
        config: SystemConfig,
        policy: AllocationPolicy,
        seed: int = 0,
        faults: Optional["FaultPlan"] = None,
        workload: Optional[WorkloadSpec] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.sim = Simulator(seed=seed)
        #: The active fault injector, or ``None`` for faultless runs.
        self.fault_injector: Optional["FaultInjector"] = None
        self.sites: List[DBSite] = [
            DBSite(self.sim, config, index) for index in range(config.num_sites)
        ]
        # Named "ring" for the paper's default topology; with
        # subnet_kind="mesh" it is a point-to-point network instead.
        self.ring = build_subnet(
            config.network.subnet_kind, self.sim, config.num_sites
        )
        self.load_board = LoadBoard(
            config.num_sites, bus=self.sim.bus, clock=self.sim
        )
        self.workload = WorkloadGenerator(self.sim, config)
        self.metrics = MetricsCollector(config, bus=self.sim.bus)
        #: The normalized workload spec (``None`` = the paper's closed model).
        self.workload_spec: Optional[WorkloadSpec] = normalize_workload(workload)
        #: Admission/shed accounting for open workloads (``None`` when closed).
        self.workload_driver: Optional[WorkloadDriver] = None
        policy.bind(self)
        self._measure_start = 0.0
        if faults is not None:
            self.install_faults(faults)
        start_workload(self)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def install_faults(self, plan: Optional["FaultPlan"]) -> None:
        """Install *plan* and switch to the degraded query life cycle.

        A ``None`` plan — and a no-op plan (one with no outages and no
        message faults) — installs nothing: the run stays on the plain
        path and is byte-identical to a faultless run.  Must be called at
        simulated time 0 (the constructor does this when ``faults=`` is
        passed), and at most once.
        """
        if plan is None or plan.is_noop:
            return
        if self.fault_injector is not None:
            raise RuntimeError("a fault plan is already installed")
        if self.sim.now != 0.0:
            raise RuntimeError(
                f"install_faults must be called at time 0, not {self.sim.now}"
            )
        from repro.faults.injector import FaultInjector

        self.fault_injector = FaultInjector(self, plan)

    def view_for(self, arrival_site: int) -> SystemView:
        """A :class:`SystemView` of this system for one decision."""
        return SystemView(self, arrival_site, injector=self.fault_injector)

    # ------------------------------------------------------------------
    # Load information (policies read through this indirection so the
    # stale-information extension can substitute a delayed view).
    # ------------------------------------------------------------------
    @property
    def load_view(self) -> LoadView:
        return self.load_board

    def load_info_age(self) -> float:
        """Age of the load information policies currently see.

        Always ``0.0`` here (the paper's free-oracle assumption: the load
        board is instantaneously current).  The stale-information
        extension overrides this with the time since its last snapshot.
        """
        return 0.0

    def candidate_sites(self, query: Query):
        """Sites eligible to execute *query*.

        Fully replicated database: every site qualifies.  The
        partial-replication extension overrides this with the set of sites
        holding a copy of the query's data.
        """
        return range(self.config.num_sites)

    # ------------------------------------------------------------------
    # Message-cost model (paper Table 3 / §5.1)
    # ------------------------------------------------------------------
    def _query_transfer_time(self, query: Query) -> float:
        network = self.config.network
        if network.msg_length is not None:
            return network.msg_length
        return query.spec.query_size * network.msg_time

    def _result_transfer_time(self, query: Query, reads: float) -> float:
        network = self.config.network
        if network.msg_length is not None:
            return network.msg_length
        result_bytes = query.spec.result_fraction * reads * network.page_size
        return result_bytes * network.msg_time

    def estimated_transfer_time(self, query: Query) -> float:
        """Figure 6's ``Transfer_Time(q)`` (optimizer view)."""
        return self._query_transfer_time(query)

    def estimated_return_time(self, query: Query) -> float:
        """Figure 6's ``Return_Time(q)`` (optimizer view)."""
        return self._result_transfer_time(query, query.estimated_reads)

    # ------------------------------------------------------------------
    # Decision audit
    # ------------------------------------------------------------------
    def _emit_decision(
        self, query: Query, view: SystemView, chosen: int, attempt: int = 0
    ) -> None:
        """Publish the decision-audit record for one ``select`` call.

        Opt-in via ``wants_type`` (like :class:`TraceMessage`): catch-all
        subscribers never trigger construction, so existing event-stream
        digests are unchanged and the extra load-board reads only happen
        when a :class:`~repro.telemetry.tracing.decisions.DecisionAudit`
        is attached.
        """
        bus = self.sim.bus
        if not bus.active or not bus.wants_type(AllocationDecided):
            return
        seen = view.loads.query_distribution()
        true = self.load_board.query_distribution()
        candidates = view.candidates(query)
        est_service = query.estimated_cpu_demand + query.estimated_io_demand(
            self.config.site.disk_time
        )
        bus.emit(
            AllocationDecided(
                time=self.sim.now,
                qid=query.qid,
                class_name=query.spec.name,
                home_site=query.home_site,
                chosen_site=chosen,
                staleness=view.load_info_age(),
                seen_loads=",".join(map(str, seen)),
                true_loads=",".join(map(str, true)),
                candidates=",".join(map(str, candidates)),
                est_service=est_service,
                est_transfer=view.estimated_transfer_time(query),
                est_return=view.estimated_return_time(query),
                attempt=attempt,
            )
        )

    # ------------------------------------------------------------------
    # Query life cycle
    # ------------------------------------------------------------------
    def execute_query(self, query: Query, query_rng):
        """Drive one query from allocation to results-at-home (a generator).

        Called from the terminal process via ``yield from``.  Dispatches
        to the degraded life cycle when a fault plan is installed.
        """
        injector = self.fault_injector
        if injector is not None:
            return (yield from self._execute_query_faulted(query, query_rng, injector))
        return (yield from self._execute_query_plain(query, query_rng))

    def _execute_query_plain(self, query: Query, query_rng):
        """The paper's Figure-2 life cycle (no faults anywhere)."""
        sim = self.sim
        view = self.view_for(query.home_site)
        execution_site = self.policy.select(query, view)
        if not 0 <= execution_site < self.config.num_sites:
            raise ValueError(
                f"policy {self.policy.name} chose invalid site {execution_site}"
            )
        self._emit_decision(query, view, execution_site)
        query.allocated_at = sim.now
        query.execution_site = execution_site
        self.load_board.register(query, execution_site)
        bus = sim.bus
        if bus.active and bus.wants(QueryAllocated):
            bus.emit(
                QueryAllocated(
                    time=sim.now,
                    qid=query.qid,
                    class_name=query.spec.name,
                    home_site=query.home_site,
                    execution_site=execution_site,
                )
            )

        if execution_site != query.home_site:
            transfer_time = self._query_transfer_time(query)
            if bus.active and bus.wants(QueryTransferred):
                bus.emit(
                    QueryTransferred(
                        time=sim.now,
                        qid=query.qid,
                        source=query.home_site,
                        destination=execution_site,
                        kind="query",
                        transfer_time=transfer_time,
                    )
                )
            yield WaitFor(
                lambda resume: self.ring.send(
                    Message(
                        source=query.home_site,
                        destination=execution_site,
                        transfer_time=transfer_time,
                        deliver=resume,
                        kind="query",
                        size_bytes=query.spec.query_size,
                    )
                )
            )

        site = self.sites[execution_site]
        yield from site.execute(query, self.workload, query_rng)
        spec = query.spec

        if execution_site != query.home_site:
            result_bytes = int(
                spec.result_fraction * query.actual_reads * self.config.network.page_size
            )
            return_time = self._result_transfer_time(query, query.actual_reads)
            if bus.active and bus.wants(QueryTransferred):
                bus.emit(
                    QueryTransferred(
                        time=sim.now,
                        qid=query.qid,
                        source=execution_site,
                        destination=query.home_site,
                        kind="result",
                        transfer_time=return_time,
                    )
                )
            yield WaitFor(
                lambda resume: self.ring.send(
                    Message(
                        source=execution_site,
                        destination=query.home_site,
                        transfer_time=return_time,
                        deliver=resume,
                        kind="result",
                        size_bytes=result_bytes,
                    )
                )
            )

        query.completed_at = sim.now
        self.load_board.deregister(query, execution_site)
        self.metrics.record(query)

    def _execute_query_faulted(
        self, query: Query, query_rng, injector: "FaultInjector"
    ):
        """The degraded query life cycle (see ``docs/faults.md``).

        Differences from the plain path:

        * allocation goes through a :class:`SystemView`, so the policy
          only ever sees *available* sites;
        * when every eligible site is down, the query backs off and
          re-enters allocation (bounded by ``plan.max_retries``);
        * a crash of the execution site interrupts the query with
          :class:`SiteCrashedError`; it forfeits acquired service, is
          released from the load board, and re-enters allocation with
          exponential backoff;
        * subnet transfers go through :meth:`_transfer_with_faults`.

        Terminals survive crashes: a lost query simply returns here and
        the terminal proceeds to its next think time.
        """
        sim = self.sim
        bus = sim.bus
        plan = injector.plan
        attempts = 0
        while True:
            view = self.view_for(query.home_site)
            try:
                execution_site = self.policy.select(query, view)
            except NoAvailableSiteError:
                # Every eligible site is down right now: count the
                # exposure and back off before trying again.
                query.fault_exposure += 1
                attempts += 1
                if attempts > plan.max_retries:
                    injector.queries_lost += 1
                    if bus.active and bus.wants(QueryLost):
                        bus.emit(
                            QueryLost(time=sim.now, qid=query.qid, attempts=attempts)
                        )
                    return
                injector.queries_retried += 1
                backoff = plan.backoff(attempts)
                if bus.active and bus.wants(QueryRetried):
                    bus.emit(
                        QueryRetried(
                            time=sim.now,
                            qid=query.qid,
                            attempt=attempts,
                            backoff=backoff,
                        )
                    )
                yield Hold(backoff)
                continue
            if not 0 <= execution_site < self.config.num_sites:
                raise ValueError(
                    f"policy {self.policy.name} chose invalid site {execution_site}"
                )
            self._emit_decision(query, view, execution_site, attempt=attempts)
            query.allocated_at = sim.now
            query.execution_site = execution_site
            self.load_board.register(query, execution_site)
            if bus.active and bus.wants(QueryAllocated):
                bus.emit(
                    QueryAllocated(
                        time=sim.now,
                        qid=query.qid,
                        class_name=query.spec.name,
                        home_site=query.home_site,
                        execution_site=execution_site,
                    )
                )
            try:
                if execution_site != query.home_site:
                    yield from self._transfer_with_faults(
                        query,
                        source=query.home_site,
                        destination=execution_site,
                        kind="query",
                        transfer_time=self._query_transfer_time(query),
                        size_bytes=query.spec.query_size,
                        injector=injector,
                    )
                # The destination may have crashed while the query was in
                # flight (in-flight processes are not crash victims — they
                # are not executing anywhere yet).
                if not injector.is_up(execution_site):
                    raise SiteCrashedError(execution_site)
                site = self.sites[execution_site]
                process = sim.current_process
                assert process is not None
                injector.begin_execution(execution_site, process)
                try:
                    yield from site.execute(query, self.workload, query_rng)
                finally:
                    injector.end_execution(execution_site, process)
            except SiteCrashedError:
                # Aborted: forfeit acquired service, release the board
                # entry, and re-enter allocation.
                self.load_board.deregister(query, execution_site)
                injector.queries_aborted += 1
                query.fault_exposure += 1
                query.service_acquired = 0.0
                query.execution_site = None
                query.started_at = None
                query.finished_at = None
                attempts += 1
                if bus.active and bus.wants(QueryAborted):
                    bus.emit(
                        QueryAborted(
                            time=sim.now,
                            qid=query.qid,
                            site=execution_site,
                            attempt=attempts,
                        )
                    )
                if attempts > plan.max_retries:
                    injector.queries_lost += 1
                    if bus.active and bus.wants(QueryLost):
                        bus.emit(
                            QueryLost(time=sim.now, qid=query.qid, attempts=attempts)
                        )
                    return
                injector.queries_retried += 1
                backoff = plan.backoff(attempts)
                if bus.active and bus.wants(QueryRetried):
                    bus.emit(
                        QueryRetried(
                            time=sim.now,
                            qid=query.qid,
                            attempt=attempts,
                            backoff=backoff,
                        )
                    )
                yield Hold(backoff)
                continue
            # Execution finished cleanly; ship the results home.
            if execution_site != query.home_site:
                result_bytes = int(
                    query.spec.result_fraction
                    * query.actual_reads
                    * self.config.network.page_size
                )
                yield from self._transfer_with_faults(
                    query,
                    source=execution_site,
                    destination=query.home_site,
                    kind="result",
                    transfer_time=self._result_transfer_time(
                        query, query.actual_reads
                    ),
                    size_bytes=result_bytes,
                    injector=injector,
                )
            query.completed_at = sim.now
            self.load_board.deregister(query, execution_site)
            injector.record_completion(query)
            self.metrics.record(query)
            return

    def _transfer_with_faults(
        self,
        query: Query,
        source: int,
        destination: int,
        kind: str,
        transfer_time: float,
        size_bytes: int,
        injector: "FaultInjector",
    ) -> Generator[object, object, None]:
        """One subnet transfer under the plan's message faults.

        Lost messages are retransmitted after ``retransmit_timeout``,
        at most ``max_retransmits`` times; after that the transfer is
        forced through (the model's stand-in for an out-of-band repair).
        Every drop counts against the query's fault exposure.
        """
        sim = self.sim
        bus = sim.bus
        messages = injector.plan.messages
        if messages is not None and not messages.is_noop:
            if messages.extra_delay > 0.0:
                yield Hold(messages.extra_delay)
            if messages.loss_prob > 0.0:
                rng = injector.net_rng
                drops = 0
                while drops < messages.max_retransmits and bernoulli(
                    rng, messages.loss_prob
                ):
                    drops += 1
                    injector.messages_dropped += 1
                    query.fault_exposure += 1
                    if bus.active and bus.wants(MessageDropped):
                        bus.emit(
                            MessageDropped(
                                time=sim.now,
                                source=source,
                                destination=destination,
                                kind=kind,
                                qid=query.qid,
                            )
                        )
                    yield Hold(messages.retransmit_timeout)
        if bus.active and bus.wants(QueryTransferred):
            bus.emit(
                QueryTransferred(
                    time=sim.now,
                    qid=query.qid,
                    source=source,
                    destination=destination,
                    kind=kind,
                    transfer_time=transfer_time,
                )
            )
        yield WaitFor(
            lambda resume: self.ring.send(
                Message(
                    source=source,
                    destination=destination,
                    transfer_time=transfer_time,
                    deliver=resume,
                    kind=kind,
                    size_bytes=size_bytes,
                )
            )
        )

    # ------------------------------------------------------------------
    # Run control and statistics
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Truncate every monitor (call at the end of warmup)."""
        self.metrics.reset()
        self.ring.reset_statistics()
        for site in self.sites:
            site.reset_statistics()
        if self.fault_injector is not None:
            self.fault_injector.reset_statistics()
        if self.workload_driver is not None:
            self.workload_driver.reset_statistics()
        self._measure_start = self.sim.now

    def run(self, warmup: float, duration: float) -> SystemResults:
        """Simulate ``warmup + duration`` time units and summarize.

        Statistics gathered during the warmup period are discarded; the
        returned results cover exactly the ``duration`` window.
        """
        if warmup < 0 or duration <= 0:
            raise ValueError("need warmup >= 0 and duration > 0")
        sim = self.sim
        bus = sim.bus
        if bus.active and bus.wants(RunStarted):
            bus.emit(
                RunStarted(
                    time=sim.now,
                    policy=self.policy.name,
                    seed=sim.seed,
                    warmup=warmup,
                    duration=duration,
                )
            )
        if warmup > 0:
            sim.run(until=warmup)
        self.reset_statistics()
        # Emitted *after* truncation so bus-driven consumers (e.g. the
        # timeline sampler) observe post-reset monitors at the boundary.
        if bus.active and bus.wants(WarmupEnded):
            bus.emit(WarmupEnded(time=sim.now))
        sim.run(until=warmup + duration)
        if bus.active and bus.wants(RunEnded):
            bus.emit(RunEnded(time=sim.now, completions=self.metrics.completions))
        return self.results()

    def results(self) -> SystemResults:
        """Summarize the statistics collected since the last reset."""
        sites = self.sites
        cpu_util = sum(s.cpu_utilization for s in sites) / len(sites)
        disk_util = sum(s.disk_utilization for s in sites) / len(sites)
        availability = (
            self.fault_injector.availability_summary()
            if self.fault_injector is not None
            else None
        )
        workload = (
            self.workload_driver.summary()
            if self.workload_driver is not None
            else None
        )
        return summarize(
            self.metrics,
            policy=self.policy.name,
            subnet_utilization=self.ring.utilization,
            cpu_utilization=cpu_util,
            disk_utilization=disk_util,
            measured_time=self.sim.now - self._measure_start,
            availability=availability,
            workload=workload,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DistributedDatabase sites={self.config.num_sites} "
            f"policy={self.policy.name} t={self.sim.now:.6g}>"
        )


__all__ = ["DistributedDatabase"]
