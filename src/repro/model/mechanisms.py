"""The mechanisms that relax the paper's assumptions, declared in one place.

The paper's results rest on free load information, homogeneous sites,
read-only queries and full replication, and its §6.2 names migration and
subquery allocation as future work.  :class:`Mechanisms` holds every
parameter of the mechanisms that relax these, each with its type and
default (off), and :meth:`Mechanisms.check` holds every rule on their
values.  :class:`~repro.model.system.DistributedDatabase` takes one as
``mechanisms=``.  Mechanisms compose with each other, with open
workloads and with fault plans, except update queries under a fault
plan: apply tasks run outside the query life cycle, so the fault
injector does not know them, and a crash of their site flushes their
read cycles without interrupting them.

Experiment tasks name a *system kind* instead: :data:`SYSTEM_KINDS`
lists the kinds, the parameters each takes and their defaults, and
:func:`check_system` turns a kind and its parameters into checked
mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from repro.model.replication import ReplicationMap, item_cdf

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.model.config import SystemConfig


@dataclass(frozen=True)
class Mechanisms:
    """Every mechanism parameter of the system, each off by default.

    * **load information** (``refresh_interval``, ``broadcast_cost``) —
      with a positive ``refresh_interval`` policies see a snapshot of the
      load board refreshed that often by a ``load-broadcaster`` process
      instead of the paper's free oracle; each refresh charges the subnet
      ``broadcast_cost`` channel time per site (``0``: the paper's
      "overhead of load status messages is negligible");
    * **per-site CPU speed** (``cpu_speed_factors``) — one positive factor
      per site; each :class:`~repro.model.site.DBSite` divides its CPU
      bursts by its speed (``None``: the paper's homogeneous system);
    * **update queries** (``update_prob``, ``update_pages``,
      ``apply_cpu_time``) — an ``update_prob`` share of queries propagate
      ``update_pages`` pages to every other replica, where an apply task
      reads them with mean CPU burst ``apply_cpu_time`` per page.
      ``None`` is the paper's read-only workload and draws nothing; any
      number, ``0.0`` included, draws one value per query before
      allocation;
    * **candidate-site map** (``replication``, ``item_weights``) — each
      query references one data item, drawn by the optional access
      weights, and may only run at the sites holding it (``None``: full
      replication, every site a candidate);
    * **migration** (``check_interval``, ``threshold``,
      ``max_migrations``) — §6.2's "moving partially executed queries
      ... between its primitive relational operations": every
      ``check_interval`` read cycles a running query re-costs its
      remaining work and moves, with its partial results, to a site
      cheaper by the ``threshold`` factor (>= 1, hysteresis), at most
      ``max_migrations`` times (``0``: off).  Only cost-based policies
      migrate;
    * **subquery pipelines** (``multi_prob``, ``subquery_count``) —
      §6.2's "allocating subqueries of distributed queries ... with only
      partially replicated data": a ``multi_prob`` share of queries
      (``None`` draws nothing) run as a chain of ``subquery_count``
      stages (>= 2), each reading its own data item of the replication
      map and allocated when it starts, with the intermediate result
      moved between stage sites.
    """

    refresh_interval: float = 0.0
    broadcast_cost: float = 0.0
    cpu_speed_factors: Optional[Sequence[float]] = None
    update_prob: Optional[float] = None
    update_pages: int = 4
    apply_cpu_time: float = 0.05
    replication: Optional[ReplicationMap] = None
    item_weights: Optional[Sequence[float]] = None
    check_interval: int = 5
    threshold: float = 1.5
    max_migrations: int = 0
    multi_prob: Optional[float] = None
    subquery_count: int = 2

    def check(
        self, num_sites: Optional[int], faults: Optional["FaultPlan"] = None
    ) -> None:
        """Reject a value no run on *num_sites* sites under *faults* can use.

        A ``None`` *num_sites* skips the two rules that need the site
        count (the number of speed factors and the replication map's
        sites), for a study variant whose config is not fixed yet.

        Raises:
            ValueError: Naming the first rule a value breaks.
        """
        if self.refresh_interval < 0:
            raise ValueError("refresh_interval must be >= 0")
        if self.broadcast_cost < 0:
            raise ValueError("broadcast_cost must be >= 0")
        speeds = self.cpu_speed_factors
        if speeds is not None:
            if num_sites is not None and len(speeds) != num_sites:
                raise ValueError(f"{len(speeds)} speed factors for {num_sites} sites")
            if any(f <= 0 for f in speeds):
                raise ValueError("speed factors must be > 0")
        if self.update_prob is not None and not 0 <= self.update_prob <= 1:
            raise ValueError("update_prob must be in [0, 1]")
        if self.update_pages < 1:
            raise ValueError("update_pages must be >= 1")
        if self.apply_cpu_time <= 0:
            raise ValueError("apply_cpu_time must be > 0")
        replication = self.replication
        if replication is None:
            if self.item_weights is not None:
                raise ValueError("item_weights need a replication map")
        elif num_sites is not None and replication.num_sites != num_sites:
            raise ValueError(
                f"replication map covers {replication.num_sites} sites, "
                f"config has {num_sites}"
            )
        self.access_cdf()  # raises on item_weights that do not fit the map
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if self.threshold < 1.0:
            raise ValueError("threshold must be >= 1 (hysteresis)")
        if self.max_migrations < 0:
            raise ValueError("max_migrations must be >= 0")
        if self.multi_prob is not None:
            if not 0 <= self.multi_prob <= 1:
                raise ValueError("multi_prob must be in [0, 1]")
            if replication is None:
                raise ValueError("multi_prob needs a replication map")
        if self.subquery_count < 2:
            raise ValueError("distributed queries need >= 2 subqueries")
        if self.update_prob is not None and faults is not None and not faults.is_noop:
            raise ValueError(
                "update queries cannot run under a fault plan: a site crash "
                "flushes an apply's read cycle from the site's queues "
                "(abort_all), and nothing resumes the apply process"
            )

    def access_cdf(self) -> Optional[Tuple[float, ...]]:
        """Cumulative access distribution over the replication map's data
        items, or ``None`` for uniform access (no ``item_weights``)."""
        if self.replication is None or self.item_weights is None:
            return None
        return item_cdf(self.item_weights, self.replication.num_items)


#: A kind's parameter that takes its :class:`Mechanisms` default.
_DEFAULT = object()
#: A kind's parameter that every task of the kind must set.
_REQUIRED = object()

#: Each system kind an experiment task may name, and the mechanism
#: parameters it takes with the kind's defaults.  A task of kind *k* runs
#: the :class:`Mechanisms` built from the defaults of *k* overridden by
#: its ``system_kwargs``.
SYSTEM_KINDS: Dict[str, Dict[str, Any]] = {
    "standard": {},
    "stale": {"refresh_interval": 50.0, "broadcast_cost": _DEFAULT},
    "updates": {"update_prob": 0.2, "update_pages": _DEFAULT, "apply_cpu_time": _DEFAULT},
    "heterogeneous": {"cpu_speed_factors": _REQUIRED},
}


def check_system(
    kind: str,
    kwargs: Sequence[Tuple[str, Any]] = (),
    config: Optional["SystemConfig"] = None,
    faults: Optional["FaultPlan"] = None,
) -> Mechanisms:
    """The checked :class:`Mechanisms` of system *kind* with *kwargs*.

    Without a *config* the rules that need the site count are skipped
    (see :meth:`Mechanisms.check`).

    Raises:
        ValueError: For an unknown kind, a parameter the kind does not
            take, a required parameter left out, or a value
            :meth:`Mechanisms.check` rejects on *config* under *faults*.
    """
    try:
        defaults = SYSTEM_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown system kind {kind!r}; expected one of {tuple(SYSTEM_KINDS)}"
        ) from None
    params = {name: value for name, value in defaults.items() if value is not _DEFAULT}
    params.update(kwargs)
    unknown = sorted(set(params) - set(defaults))
    missing = sorted(name for name, value in params.items() if value is _REQUIRED)
    if unknown or missing:
        problem = (
            f"does not take {', '.join(unknown)}"
            if unknown
            else f"requires {', '.join(missing)}"
        )
        accepted = ", ".join(defaults) or "no parameters"
        raise ValueError(f"system kind {kind!r} {problem}; it accepts: {accepted}")
    mechanisms = Mechanisms(**params)
    try:
        mechanisms.check(None if config is None else config.num_sites, faults)
    except ValueError as exc:
        raise ValueError(f"system kind {kind!r}: {exc}") from None
    return mechanisms


__all__ = ["Mechanisms", "SYSTEM_KINDS", "check_system"]
