"""The distributed database system: wiring, query life cycle, run control.

:class:`DistributedDatabase` assembles the full model of the paper's
Figure 1/Figure 2 — sites, terminals, token ring, load board, workload
generator, metrics — around one allocation policy, and exposes ``run()``
to produce a :class:`~repro.model.metrics.SystemResults`.

The query life cycle (Figure 2's flow) is implemented once, in
:meth:`DistributedDatabase.execute_query`:

1. the allocation policy picks an execution site from optimizer estimates
   and the load board;
2. the query is committed to that site on the load board;
3. if remote, the query descriptor crosses the token ring;
4. the query cycles ``actual_reads`` times through disk (FCFS) and CPU (PS);
5. if remote, the results cross the ring back to the home site;
6. the query is released from the load board and recorded by the metrics.

With a :class:`~repro.faults.plan.FaultPlan` installed (see
:meth:`DistributedDatabase.install_faults`) allocation only sees
*available* sites (through a :class:`~repro.model.view.SystemView`), a
crash of the site a query is committed to aborts it and re-enters
allocation with bounded retry and exponential backoff, and subnet
transfers consult the plan's message faults.  Without a plan no pass
fails and nothing changes — byte-for-byte (a chaos-determinism test pins
this).

The paper's simplifying assumptions relax one mechanism at a time: stale
load information, per-site CPU speeds, update queries, a candidate-site
map, migration and subquery pipelines.  Every mechanism parameter, its
default (off) and its value rules live in
:class:`~repro.model.mechanisms.Mechanisms`, which the constructor takes
as ``mechanisms=``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.faults.errors import NoAvailableSiteError, SiteCrashedError
from repro.model.config import SystemConfig
from repro.model.loadboard import LoadBoard, LoadView
from repro.model.mechanisms import Mechanisms
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
    """A distributed database system under one allocation policy.

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
        mechanisms: The mechanisms that relax the paper's assumptions
            (see :class:`~repro.model.mechanisms.Mechanisms`); the
            default switches every one off.
    """

    def __init__(
        self,
        config: SystemConfig,
        policy: AllocationPolicy,
        seed: int = 0,
        faults: Optional["FaultPlan"] = None,
        workload: Optional[WorkloadSpec] = None,
        *,
        mechanisms: Mechanisms = Mechanisms(),
    ) -> None:
        mechanisms.check(config.num_sites)
        speeds = mechanisms.cpu_speed_factors or (1.0,) * config.num_sites
        self._item_cdf = mechanisms.access_cdf()
        self.config = config
        self.policy = policy
        self.sim = Simulator(seed=seed)
        #: The active fault injector, or ``None`` for faultless runs.
        self.fault_injector: Optional["FaultInjector"] = None
        self.sites: List[DBSite] = [
            DBSite(self.sim, config, index, cpu_speed=float(speeds[index]))
            for index in range(config.num_sites)
        ]
        # Named "ring" for the paper's default topology; with
        # subnet_kind="mesh" it is a point-to-point network instead.
        self.ring = build_subnet(
            config.network.subnet_kind, self.sim, config.num_sites
        )
        self.load_board = LoadBoard(
            config.num_sites, bus=self.sim.bus, clock=self.sim
        )
        #: The load information policies see: the live board (the
        #: paper's oracle) or the last broadcast snapshot.
        self.load_view: LoadView = self.load_board
        self.mechanisms = mechanisms
        self.refreshes = 0
        self._last_refresh = 0.0
        self.updates_executed = 0
        self.applies_completed = 0
        self._applies_started = 0
        self.total_migrations = 0
        self.distributed_queries = 0
        self.data_moves = 0
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
        # Launched after the workload: process-launch order is part of
        # the event sequence.
        if mechanisms.refresh_interval > 0:
            self.load_view = self.load_board.snapshot()
            self.sim.launch(self._refresher(), name="load-broadcaster")

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def install_faults(self, plan: Optional["FaultPlan"]) -> None:
        """Install *plan*: from now on queries see only available sites.

        A ``None`` plan — and a no-op plan (one with no outages and no
        message faults) — installs nothing: the run is byte-identical to
        a faultless run.  Must be called at
        simulated time 0 (the constructor does this when ``faults=`` is
        passed), and at most once.
        """
        if plan is None or plan.is_noop:
            return
        self.mechanisms.check(self.config.num_sites, plan)
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
    # Load information
    # ------------------------------------------------------------------
    def load_info_age(self) -> float:
        """Age of the load information policies currently see.

        ``0.0`` for the paper's oracle (``refresh_interval=0``), else the
        time since the last snapshot.
        """
        if self.load_view is self.load_board:
            return 0.0
        return self.sim.now - self._last_refresh

    def _refresher(self):
        """Periodic snapshot process (plus optional channel charges)."""
        mechanisms = self.mechanisms
        while True:
            yield Hold(mechanisms.refresh_interval)
            self.load_view = self.load_board.snapshot()
            self._last_refresh = self.sim.now
            self.refreshes += 1
            if mechanisms.broadcast_cost > 0 and self.config.num_sites > 1:
                for site in range(self.config.num_sites):
                    self.ring.send(
                        Message(
                            source=site,
                            destination=(site + 1) % self.config.num_sites,
                            transfer_time=mechanisms.broadcast_cost,
                            deliver=lambda: None,
                            kind="control",
                        )
                    )

    # ------------------------------------------------------------------
    # Candidate sites
    # ------------------------------------------------------------------
    def candidate_sites(self, query: Query):
        """Sites eligible to execute *query*.

        Every site under full replication; with a replication map, the
        holders of the query's data item.
        """
        replication = self.mechanisms.replication
        if replication is None or query.data_item is None:
            return range(self.config.num_sites)
        return replication.holders(query.data_item)

    def _draw_item(self, query_rng: random.Random) -> int:
        """A data item from the replication map, by the access weights."""
        replication = self.mechanisms.replication
        assert replication is not None
        if self._item_cdf is None:
            return query_rng.randrange(replication.num_items)
        u = query_rng.random()
        for item, threshold in enumerate(self._item_cdf):
            if u < threshold:
                return item
        return len(self._item_cdf) - 1

    # ------------------------------------------------------------------
    # Update propagation
    # ------------------------------------------------------------------
    @property
    def pending_applies(self) -> int:
        """Apply tasks announced but not yet finished."""
        return self._applies_started - self.applies_completed

    def _propagation_transfer_time(self) -> float:
        network = self.config.network
        if network.msg_length is not None:
            return network.msg_length
        return self.mechanisms.update_pages * network.page_size * network.msg_time

    def _apply_process(self, site_index: int, update_id: int):
        """Apply one update's write set at one replica.

        Draws from a replica-local stream: applies are background work
        outside the common-random-numbers contract.
        """
        site = self.sites[site_index]
        rng = self.sim.rng.once(f"apply.s{site_index}.u{update_id}")
        mechanisms = self.mechanisms
        yield site.read_cycles(
            self.workload, rng, mechanisms.update_pages, mechanisms.apply_cpu_time
        )
        self.applies_completed += 1

    def _propagate(self, query: Query, execution_site: int) -> None:
        """Send *query*'s write set to every other replica (asynchronously:
        the updating user's response time has already ended)."""
        size_bytes = self.mechanisms.update_pages * self.config.network.page_size
        for site_index in range(self.config.num_sites):
            if site_index == execution_site:
                continue
            self._applies_started += 1

            def start_apply(site_index=site_index, update_id=query.qid):
                self.sim.launch(
                    self._apply_process(site_index, update_id),
                    name=f"apply.u{update_id}.s{site_index}",
                )

            self.ring.send(
                Message(
                    source=execution_site,
                    destination=site_index,
                    transfer_time=self._propagation_transfer_time(),
                    deliver=start_apply,
                    kind="update",
                    size_bytes=size_bytes,
                )
            )

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
        self, query: Query, view: SystemView, chosen: int, attempt: int
    ) -> None:
        """Publish the decision-audit record for one allocation decision.

        Opt-in: only a session with
        ``TelemetryConfig(decisions=True)`` subscribes to it, so event
        logs without decisions keep their digests and the extra
        load-board reads only happen when decisions are audited.
        """
        bus = self.sim.bus
        if not bus.active or not bus.wants(AllocationDecided):
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

        Called from the terminal process via ``yield from``.  Draws, in
        order and only when the mechanism is on, the multi-stage coin,
        the update coin, and the data item (or one item per stage).
        Then one pass: allocate, commit to the load board, ship the query
        out, execute (stage by stage, migrating between read cycles when
        migration is on), ship the results home, release and record.

        Under a fault plan a pass fails when every eligible site is down
        or the site the query is committed to crashes; the query then
        gives up its service and board entry, backs off and starts again
        at stage 0 (bounded by ``plan.max_retries``).  Terminals survive
        crashes: a lost query simply returns here and the terminal
        proceeds to its next think time.  Without a plan no pass fails.
        """
        mechanisms = self.mechanisms
        multi_prob = mechanisms.multi_prob
        staged = multi_prob is not None and query_rng.random() < multi_prob
        update_prob = mechanisms.update_prob
        is_update = update_prob is not None and query_rng.random() < update_prob
        stages = None
        if staged:
            self.distributed_queries += 1
            stages = self._plan_stages(query, query_rng)
        elif mechanisms.replication is not None:
            query.data_item = self._draw_item(query_rng)
        sim = self.sim
        home = query.home_site
        attempts = 0
        while True:
            try:
                if stages is None:
                    view = self.view_for(home)
                    site = self.policy.select(query, view)
                    if not 0 <= site < self.config.num_sites:
                        raise ValueError(
                            f"policy {self.policy.name} chose invalid site {site}"
                        )
                    self._emit_decision(query, view, site, attempts)
                    query.allocated_at = sim.now
                    self._commit(query, site)
                    if site != home:
                        yield from self._transfer(
                            query,
                            source=home,
                            destination=site,
                            kind="query",
                            transfer_time=self._query_transfer_time(query),
                            size_bytes=query.spec.query_size,
                        )
                    site = yield from self._serve(
                        query,
                        query_rng,
                        site,
                        query.actual_reads,
                        query.data_item,
                        0,
                        attempts,
                    )
                else:
                    query.allocated_at = sim.now
                    site, done = home, 0
                    for reads, item in stages:
                        stage = replace(
                            query,
                            estimated_reads=float(reads),
                            actual_reads=reads,
                            data_item=item,
                        )
                        view = self.view_for(site)
                        target = self._stage_site(stage, view)
                        self._emit_decision(stage, view, target, attempts)
                        self._commit(query, target)
                        if target != site:
                            self.data_moves += 1
                            yield from self._hop(query, site, target, "data-move", done)
                        site = yield from self._serve(
                            query, query_rng, target, reads, item, done, attempts
                        )
                        done += reads
            except (NoAvailableSiteError, SiteCrashedError):
                attempts += 1
                backoff = self._abandon_pass(query, attempts)
                if backoff is None:
                    return
                yield Hold(backoff)
                continue
            break
        if site != home:
            result_bytes = int(
                query.spec.result_fraction
                * query.actual_reads
                * self.config.network.page_size
            )
            yield from self._transfer(
                query,
                source=site,
                destination=home,
                kind="result",
                transfer_time=self._result_transfer_time(query, query.actual_reads),
                size_bytes=result_bytes,
            )
        query.completed_at = sim.now
        self.load_board.deregister(query, site)
        if self.fault_injector is not None:
            self.fault_injector.record_completion(query)
        self.metrics.record(query)
        if is_update:
            self.updates_executed += 1
            self._propagate(query, site)

    def _commit(self, query: Query, site: int) -> None:
        """Commit *query* to *site* on the load board, moving any old entry."""
        board = self.load_board
        if query.execution_site is not None:
            board.deregister(query, query.execution_site)
        query.execution_site = site
        board.register(query, site)
        bus = self.sim.bus
        if bus.active and bus.wants(QueryAllocated):
            bus.emit(
                QueryAllocated(
                    time=self.sim.now,
                    qid=query.qid,
                    class_name=query.spec.name,
                    home_site=query.home_site,
                    execution_site=site,
                )
            )

    def _serve(
        self,
        query: Query,
        query_rng: random.Random,
        site: int,
        reads: int,
        item: Optional[int],
        done: int,
        attempt: int,
    ) -> Generator[object, object, int]:
        """Run *reads* read cycles of *query* from *site*; returns where they end.

        *item* is the data item the reads touch (the query's, or its
        current stage's) and *done* counts the query's reads before this
        call.  Without migration every read runs in one
        :meth:`DBSite.execute` call.  With migration the reads run
        ``check_interval`` at a time, and after each batch the remaining
        work is re-costed from the current site among its available
        candidates; a site cheaper by the ``threshold`` factor takes the
        query, its board entry and its partial results.  Under a fault
        plan the site must be up when a batch starts, and a crash while
        it runs aborts the pass.
        """
        injector = self.fault_injector
        mechanisms = self.mechanisms
        while True:
            batch = reads
            if query.migrations < mechanisms.max_migrations:
                batch = min(reads, mechanisms.check_interval)
            runner = self.sites[site].execute(query, self.workload, query_rng, batch)
            if injector is None:
                yield from runner
            else:
                # The site may have crashed while the query was in flight
                # (in-flight processes are not crash victims: they are not
                # executing anywhere yet).
                if not injector.is_up(site):
                    raise SiteCrashedError(site)
                process = self.sim.current_process
                assert process is not None
                injector.begin_execution(site, process)
                try:
                    yield from runner
                finally:
                    injector.end_execution(site, process)
            reads -= batch
            if not reads:
                return site
            done += batch
            remainder = replace(
                query, estimated_reads=float(reads), actual_reads=reads, data_item=item
            )
            view = self.view_for(site)
            target = self.policy.recost(remainder, view, mechanisms.threshold)
            if target is None or target == site:
                continue
            self._emit_decision(remainder, view, target, attempt)
            self._commit(query, target)
            yield from self._hop(query, site, target, "migration", done)
            query.migrations += 1
            self.total_migrations += 1
            site = target

    def _plan_stages(
        self, query: Query, query_rng: random.Random
    ) -> List[Tuple[int, int]]:
        """``(reads, data item)`` per stage: the read budget split evenly
        (every stage at least one read), one item drawn per stage."""
        count = self.mechanisms.subquery_count
        base, extra = divmod(query.actual_reads, count)
        reads = [max(1, base + (1 if s < extra else 0)) for s in range(count)]
        return [(r, self._draw_item(query_rng)) for r in reads]

    def _stage_site(self, stage: Query, view: SystemView) -> int:
        """Where the next stage runs, seen from where the pipeline is.

        The policy re-costs the stage over its item's available holders;
        a policy without costs stays put when it can, or else moves to
        the nearest holder downstream.
        """
        site = self.policy.recost(stage, view)
        if site is not None:
            return site
        here = view.arrival_site
        candidates = view.candidates(stage)
        if here in candidates:
            return here
        num_sites = self.config.num_sites
        return min(candidates, key=lambda s: (s - here) % num_sites)

    def _abandon_pass(self, query: Query, attempts: int) -> Optional[float]:
        """Account for one failed pass of the life cycle.

        A query committed to a site was aborted: it forfeits its service
        and board entry.  Returns the backoff before the next pass, or
        ``None`` when the retry budget is spent and the query is lost.
        """
        injector = self.fault_injector
        assert injector is not None
        sim = self.sim
        bus = sim.bus
        query.fault_exposure += 1
        site = query.execution_site
        if site is not None:
            self.load_board.deregister(query, site)
            injector.queries_aborted += 1
            query.service_acquired = 0.0
            query.execution_site = None
            query.started_at = None
            query.finished_at = None
            if bus.active and bus.wants(QueryAborted):
                bus.emit(
                    QueryAborted(
                        time=sim.now, qid=query.qid, site=site, attempt=attempts
                    )
                )
        plan = injector.plan
        if attempts > plan.max_retries:
            injector.queries_lost += 1
            if bus.active and bus.wants(QueryLost):
                bus.emit(QueryLost(time=sim.now, qid=query.qid, attempts=attempts))
            return None
        injector.queries_retried += 1
        backoff = plan.backoff(attempts)
        if bus.active and bus.wants(QueryRetried):
            bus.emit(
                QueryRetried(
                    time=sim.now, qid=query.qid, attempt=attempts, backoff=backoff
                )
            )
        return backoff

    def _hop(
        self, query: Query, source: int, destination: int, kind: str, done: int
    ) -> Generator[object, object, None]:
        """Move a partly executed query: descriptor plus *done* reads'
        partial results (a stage's data move, or a migration)."""
        network = self.config.network
        moved = int(query.spec.result_fraction * done * network.page_size)
        if network.msg_length is not None:
            transfer_time = network.msg_length
        else:
            transfer_time = (query.spec.query_size + moved) * network.msg_time
        return self._transfer(
            query, source, destination, kind, transfer_time, size_bytes=moved
        )

    def _transfer(
        self,
        query: Query,
        source: int,
        destination: int,
        kind: str,
        transfer_time: float,
        size_bytes: int,
    ) -> Generator[object, object, None]:
        """One subnet transfer, under the fault plan's message faults.

        Lost messages are retransmitted after ``retransmit_timeout``,
        at most ``max_retransmits`` times; after that the transfer is
        forced through (the model's stand-in for an out-of-band repair).
        Every drop counts against the query's fault exposure.
        """
        sim = self.sim
        bus = sim.bus
        injector = self.fault_injector
        messages = None if injector is None else injector.plan.messages
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
