"""The allocation decision audit: staleness and ex-post regret.

Every ``AllocationPolicy.select`` call produces one opt-in
:class:`~repro.telemetry.events.AllocationDecided` event carrying the
:class:`~repro.model.view.SystemView` snapshot the policy *saw* (the
masked or stale per-site loads), the *true* instantaneous load-board
counts at the same instant, the chosen site, and the optimizer's
service/transfer estimates.  :func:`record_from_event` turns that into
a :class:`DecisionRecord` with two derived observables:

* **staleness** — the age of the load information the policy consulted
  (0.0 under the paper's oracle load board; positive under the
  stale-info extension);
* **regret** — the estimated response-time cost of the chosen site
  minus the cost of the ex-post best site, both computed over the
  *true* loads with the same Figure 6 cost model the optimizing
  policies use (see :func:`decision_cost`).  A decision made on stale
  or masked information can pick a site that looks lightest but is
  not; regret quantifies exactly how much that staleness cost.

Everything needed to recompute cost/best/regret is stored *in the
record itself* (loads, candidates, the three estimates), so the audit
is auditable: tests brute-force the aggregates from the raw fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.telemetry.events import AllocationDecided


def decision_cost(
    load: int,
    est_service: float,
    est_transfer: float,
    est_return: float,
    remote: bool,
) -> float:
    """Figure 6's estimated response time of running at one site.

    ``(load + 1)`` queries (the committed queries plus this one) share
    the site, each costing the optimizer's total service estimate; a
    remote choice additionally pays the query and result transfers.
    """
    cost = (load + 1) * est_service
    if remote:
        cost += est_transfer + est_return
    return cost


@dataclass(frozen=True)
class DecisionRecord:
    """One audited allocation decision.

    The event's comma-joined load strings are decoded back into integer
    tuples; ``cost_chosen``/``cost_best``/``best_site``/``regret`` are
    derived (via :func:`decision_cost` over ``true_loads``) but stored
    so records are self-contained for export and brute-force checking.

    Attributes:
        time: Decision instant (simulated time).
        qid: The query being allocated.
        class_name: The query's class.
        home_site: Site whose terminal issued the query.
        chosen_site: The site the policy selected.
        staleness: Age of the load information the policy saw.
        seen_loads: Per-site loads as the policy saw them.
        true_loads: The live load board's counts at the same instant.
        candidates: Candidate sites the view offered.
        est_service: Optimizer's total service estimate for the query.
        est_transfer: Estimated query-transfer time.
        est_return: Estimated result-return time.
        attempt: Allocation attempt number (0 for the first attempt).
        cost_chosen: :func:`decision_cost` of the chosen site on the
            true loads.
        cost_best: The minimum cost over the candidates.
        best_site: The arg-min candidate (lowest index on ties).
        regret: ``cost_chosen - cost_best`` (>= 0).
    """

    time: float
    qid: int
    class_name: str
    home_site: int
    chosen_site: int
    staleness: float
    seen_loads: Tuple[int, ...]
    true_loads: Tuple[int, ...]
    candidates: Tuple[int, ...]
    est_service: float
    est_transfer: float
    est_return: float
    attempt: int
    cost_chosen: float
    cost_best: float
    best_site: int
    regret: float

    @property
    def optimal(self) -> bool:
        """Whether the decision was ex-post optimal (zero regret)."""
        return self.chosen_site == self.best_site


def _decode(joined: str) -> Tuple[int, ...]:
    if not joined:
        return ()
    return tuple(map(int, joined.split(",")))


def record_from_event(event: AllocationDecided) -> DecisionRecord:
    """Derive the full audit record from one opt-in decision event.

    Cost/best/regret are computed with :func:`decision_cost` over the
    *true* loads: what the decision actually cost, not what the policy
    believed.  Ties break toward the lowest site index, matching the
    optimizing policies' deterministic tie-break.
    """
    true_loads = _decode(event.true_loads)
    candidates = _decode(event.candidates)
    home = event.home_site

    def cost_at(site: int) -> float:
        return decision_cost(
            true_loads[site],
            event.est_service,
            event.est_transfer,
            event.est_return,
            remote=site != home,
        )

    cost_chosen = cost_at(event.chosen_site)
    # min over (cost, site): ties break toward the lowest site index.
    best_site = candidates[0]
    cost_best = cost_at(best_site)
    for site in candidates[1:]:
        cost = cost_at(site)
        if cost < cost_best or (cost == cost_best and site < best_site):
            cost_best = cost
            best_site = site
    return DecisionRecord(
        time=event.time,
        qid=event.qid,
        class_name=event.class_name,
        home_site=home,
        chosen_site=event.chosen_site,
        staleness=event.staleness,
        seen_loads=_decode(event.seen_loads),
        true_loads=true_loads,
        candidates=candidates,
        est_service=event.est_service,
        est_transfer=event.est_transfer,
        est_return=event.est_return,
        attempt=event.attempt,
        cost_chosen=cost_chosen,
        cost_best=cost_best,
        best_site=best_site,
        regret=cost_chosen - cost_best,
    )


@dataclass(frozen=True)
class DecisionSummary:
    """Roll-up of one run's decision audit (``SystemResults.decisions``).

    Attributes:
        count: Audited decisions.
        mean_staleness: Mean load-information age across decisions.
        max_staleness: Worst-case age.
        mean_regret: Mean ex-post regret (estimated-response-time units).
        max_regret: Worst single decision.
        total_regret: Sum of all regrets.
        optimal_fraction: Fraction of decisions that picked the ex-post
            best site.
    """

    count: int
    mean_staleness: float
    max_staleness: float
    mean_regret: float
    max_regret: float
    total_regret: float
    optimal_fraction: float


def summarize_decisions(records: Sequence[DecisionRecord]) -> DecisionSummary:
    """Roll audited decisions up into a :class:`DecisionSummary`.

    Sums use :func:`math.fsum` so the aggregates are independent of
    accumulation order (byte-stable across replays).
    """
    count = len(records)
    if count == 0:
        return DecisionSummary(
            count=0,
            mean_staleness=0.0,
            max_staleness=0.0,
            mean_regret=0.0,
            max_regret=0.0,
            total_regret=0.0,
            optimal_fraction=0.0,
        )
    total_regret = math.fsum(r.regret for r in records)
    return DecisionSummary(
        count=count,
        mean_staleness=math.fsum(r.staleness for r in records) / count,
        max_staleness=max(r.staleness for r in records),
        mean_regret=total_regret / count,
        max_regret=max(r.regret for r in records),
        total_regret=total_regret,
        optimal_fraction=sum(1 for r in records if r.optimal) / count,
    )


__all__ = [
    "DecisionRecord",
    "DecisionSummary",
    "decision_cost",
    "record_from_event",
    "summarize_decisions",
]
