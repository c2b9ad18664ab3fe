"""Subquery allocation: the paper's stated eventual goal, implemented.

§1.1 describes how distributed queries are "decomposed into sequences of
*data moves* and *subqueries*", and §6.2 names the end goal: "dynamically
allocating subqueries of distributed queries to sites in an environment
with only partially replicated data".  This extension implements exactly
that pipeline model:

* a fraction ``multi_prob`` of queries are *distributed*: a chain of
  ``subquery_count`` stages, each referencing its own data item (so each
  stage has its own candidate-site set under the replication map);
* each stage is allocated *when it starts*, using the bound policy's cost
  function over the stage's candidate sites — so allocation decisions see
  the load state at stage time, not plan time (the dynamic part);
* between consecutive stages executed at different sites, the intermediate
  result crosses the subnet (a data move), sized by the work done so far;
* the final stage's results return to the home terminal as usual.

The paper's §1.2.4 point is respected: a *running* stage never moves;
re-decision happens only at stage boundaries, where the only state to ship
is the intermediate result.

Stage allocation reuses the policy's ``site_cost`` with a stage-local
pseudo-query whose "arrival site" is wherever the pipeline currently is,
so LERT's network term naturally prices the data move.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.model.config import SystemConfig
from repro.model.query import Query
from repro.model.replication import ReplicationMap
from repro.model.ring import Message
from repro.model.system import DistributedDatabase
from repro.policies.base import AllocationPolicy, CostBasedPolicy
from repro.sim.process import WaitFor


class SubqueryDatabase(DistributedDatabase):
    """Distributed queries as dynamically allocated subquery pipelines.

    Args:
        config: Model parameters.
        policy: Allocation policy; cost-based policies are consulted per
            stage, others (LOCAL/RANDOM) fall back to their whole-query
            behavior per stage.
        replication: Data placement (each stage draws its own item).
        seed: Master seed.
        multi_prob: Probability a query is distributed (multi-stage).
        subquery_count: Stages per distributed query (>= 2).
        item_weights: Optional access skew over data items.
    """

    def __init__(
        self,
        config: SystemConfig,
        policy: AllocationPolicy,
        replication: ReplicationMap,
        seed: int = 0,
        multi_prob: float = 0.5,
        subquery_count: int = 2,
        item_weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not 0 <= multi_prob <= 1:
            raise ValueError("multi_prob must be in [0, 1]")
        if subquery_count < 2:
            raise ValueError("distributed queries need >= 2 subqueries")
        self.multi_prob = multi_prob
        self.subquery_count = subquery_count
        self.distributed_queries = 0
        self.data_moves = 0
        super().__init__(
            config,
            policy,
            seed=seed,
            replication=replication,
            item_weights=item_weights,
        )

    # ------------------------------------------------------------------
    # Stage allocation
    # ------------------------------------------------------------------
    def _stage_candidates(self, item: int) -> Tuple[int, ...]:
        return self.replication.holders(item)

    def _allocate_stage(
        self, stage_query: Query, current_site: int
    ) -> int:
        """Pick the stage's execution site among its item's holders."""
        candidates = list(self._stage_candidates(stage_query.data_item))
        policy = self.policy
        if isinstance(policy, CostBasedPolicy):
            # Present the pipeline's current location as the arrival site so
            # cost models that price network transfers do so correctly.
            policy._view = self.view_for(current_site)
            if current_site in candidates:
                best, best_cost = current_site, policy.site_cost(
                    stage_query, current_site
                )
            else:
                best, best_cost = -1, float("inf")
            for site in candidates:
                if site == current_site:
                    continue
                cost = policy.site_cost(stage_query, site)
                if cost < best_cost:
                    best, best_cost = site, cost
            return best
        # Non-cost policies: prefer to stay, else nearest holder.
        if current_site in candidates:
            return current_site
        return min(
            candidates,
            key=lambda s: (s - current_site) % self.config.num_sites,
        )

    def _move_transfer_time(self, query: Query, reads_done: int) -> float:
        network = self.config.network
        if network.msg_length is not None:
            return network.msg_length
        payload = query.spec.query_size + int(
            query.spec.result_fraction * reads_done * network.page_size
        )
        return payload * network.msg_time

    # ------------------------------------------------------------------
    # Overridden life cycle
    # ------------------------------------------------------------------
    def execute_query(self, query: Query, query_rng):
        if query_rng.random() >= self.multi_prob:
            # Single-site query: the plain life cycle over the item's holders.
            yield from super().execute_query(query, query_rng)
            return

        self.distributed_queries += 1
        sim = self.sim
        stages = self.subquery_count
        # Split the read budget across stages (every stage >= 1 read).
        base, extra = divmod(query.actual_reads, stages)
        stage_reads = [max(1, base + (1 if s < extra else 0)) for s in range(stages)]
        stage_items = [self._draw_item(query_rng) for _ in range(stages)]

        query.allocated_at = sim.now
        current_site = query.home_site
        reads_done = 0
        registered_site: Optional[int] = None

        for stage_index in range(stages):
            reads = stage_reads[stage_index]
            stage_query = Query(
                class_index=query.class_index,
                spec=query.spec,
                home_site=current_site,
                estimated_reads=float(reads),
                actual_reads=reads,
                io_bound=query.io_bound,
                data_item=stage_items[stage_index],
            )
            target = self._allocate_stage(stage_query, current_site)

            # Re-commit the query to its stage site on the load board.
            if registered_site is not None:
                self.load_board.deregister(query, registered_site)
            self.load_board.register(query, target)
            registered_site = target

            if target != current_site:
                self.data_moves += 1
                transfer = self._move_transfer_time(query, reads_done)
                source = current_site
                yield WaitFor(
                    lambda resume: self.ring.send(
                        Message(
                            source=source,
                            destination=target,
                            transfer_time=transfer,
                            deliver=resume,
                            kind="data-move",
                            size_bytes=int(
                                query.spec.result_fraction
                                * reads_done
                                * self.config.network.page_size
                            ),
                        )
                    )
                )
                current_site = target

            if stage_index == 0:
                query.started_at = sim.now
            query.execution_site = current_site
            site = self.sites[current_site]
            for _ in range(reads):
                disk_time = self.workload.disk_time(query_rng)
                yield site.disk_service(disk_time, query_rng)
                query.service_acquired += disk_time
                cpu_time = query_rng.expovariate(1.0 / query.spec.page_cpu_time)
                yield site.cpu_service(cpu_time)
                query.service_acquired += cpu_time
            reads_done += reads

        query.finished_at = sim.now
        if current_site != query.home_site:
            result_bytes = int(
                query.spec.result_fraction
                * query.actual_reads
                * self.config.network.page_size
            )
            source = current_site
            yield WaitFor(
                lambda resume: self.ring.send(
                    Message(
                        source=source,
                        destination=query.home_site,
                        transfer_time=self._result_transfer_time(
                            query, query.actual_reads
                        ),
                        deliver=resume,
                        kind="result",
                        size_bytes=result_bytes,
                    )
                )
            )

        query.completed_at = sim.now
        if registered_site is not None:
            self.load_board.deregister(query, registered_site)
        self.metrics.record(query)


__all__ = ["SubqueryDatabase"]
