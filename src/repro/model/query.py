"""Query objects: the unit of work the allocation policies place.

A :class:`Query` carries two views of its resource needs:

* the **optimizer estimates** (``estimated_reads``, ``page_cpu_time``),
  which is what allocation policies are allowed to look at — the paper's
  premise is that "estimates of the CPU and I/O needs of queries are
  attached to the queries" by the query optimizer; and
* the **realized demands** accumulated while the query actually executes
  (``service_acquired``), which the metrics layer uses to separate waiting
  time from service time.

Timestamps let the metrics layer compute response time, waiting time, and
normalized waiting time without the model code doing arithmetic inline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.model.config import QueryClassSpec, SystemConfig

_query_ids = itertools.count(1)


@dataclass
class Query:
    """One read-only query circulating through the system.

    Attributes:
        qid: Unique id (monotone per process).
        class_index: Index into ``SystemConfig.classes``.
        spec: The query's class parameters.
        home_site: Site whose terminal issued the query.
        estimated_reads: The optimizer's estimate of the number of page
            reads (the raw sampled value, before integer rounding).
        actual_reads: The integer number of disk/CPU cycles the query will
            actually perform.
        io_bound: Classification under the paper's per-disk rule.
    """

    class_index: int
    spec: QueryClassSpec
    home_site: int
    estimated_reads: float
    actual_reads: int
    io_bound: bool
    qid: int = field(default_factory=lambda: next(_query_ids))

    # Lifecycle timestamps (simulated time); None until reached.
    created_at: Optional[float] = None
    allocated_at: Optional[float] = None
    execution_site: Optional[int] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None  # execution done at the site
    completed_at: Optional[float] = None  # results delivered back home

    #: Actual service time acquired so far (disk + CPU), excluding all
    #: queueing and network time.
    service_acquired: float = 0.0

    #: Data item the query reads (with a replication map); None in the
    #: fully replicated base model.
    data_item: Optional[int] = None

    #: Times the query moved between sites mid-execution (the
    #: ``max_migrations`` parameter of ``Mechanisms``); always 0
    #: when migration is off.
    migrations: int = 0

    #: How many fault events the query was exposed to (site crashes that
    #: aborted it plus subnet messages lost under it); always 0 when no
    #: fault plan is installed.  A completion with ``fault_exposure > 0``
    #: is counted as *degraded* by the availability metrics.
    fault_exposure: int = 0

    # ------------------------------------------------------------------
    # Optimizer-estimate accessors (what policies may read)
    # ------------------------------------------------------------------
    @property
    def page_cpu_time(self) -> float:
        """Estimated mean CPU demand per page (the class mean)."""
        return self.spec.page_cpu_time

    @property
    def estimated_cpu_demand(self) -> float:
        """Figure 6's ``Num_Reads(q) * Page_CPU_Time(q)``."""
        return self.estimated_reads * self.spec.page_cpu_time

    def estimated_io_demand(self, disk_time: float) -> float:
        """Figure 6's ``Num_Reads(q) * disk_time``."""
        return self.estimated_reads * disk_time

    # ------------------------------------------------------------------
    # Measured quantities (what metrics may read, after completion)
    # ------------------------------------------------------------------
    @property
    def remote(self) -> bool:
        """Whether the query executed away from its home site."""
        return self.execution_site is not None and self.execution_site != self.home_site

    @property
    def response_time(self) -> float:
        """Issue-to-results-home latency."""
        if self.completed_at is None or self.created_at is None:
            raise ValueError(f"query {self.qid} has not completed")
        return self.completed_at - self.created_at

    @property
    def waiting_time(self) -> float:
        """Response time minus actual service acquired.

        Everything that is not disk/CPU service counts as waiting: queueing
        at the disks, sharing delay at the CPU, waiting for the ring, and
        channel transfer time.
        """
        return self.response_time - self.service_acquired

    @property
    def normalized_waiting_time(self) -> float:
        """Ŵ = waiting time / realized service demand (paper §3)."""
        if self.service_acquired <= 0:
            return 0.0
        return self.waiting_time / self.service_acquired


def make_query(
    config: SystemConfig,
    class_index: int,
    home_site: int,
    estimated_reads: float,
    created_at: float,
    qid: Optional[int] = None,
) -> Query:
    """Build a query, applying the integer-cycles policy and classification.

    Args:
        qid: Explicit query id.  Callers that need run-deterministic ids
            (anything whose random streams are keyed by ``qid``) must pass
            one; the process-global default counter exists only as a
            convenience for ad-hoc construction and depends on process
            history.
    """
    spec = config.classes[class_index]
    if config.integer_reads:
        actual = max(1, int(round(estimated_reads)))
    else:
        actual = max(1, int(estimated_reads))
    kwargs = {} if qid is None else {"qid": qid}
    return Query(
        class_index=class_index,
        spec=spec,
        home_site=home_site,
        estimated_reads=estimated_reads,
        actual_reads=actual,
        io_bound=config.is_io_bound(spec.page_cpu_time),
        created_at=created_at,
        **kwargs,
    )


__all__ = ["Query", "make_query"]
