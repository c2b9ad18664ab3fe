"""Allocation-policy interface and the paper's site-selection loop.

The public entry point is::

    site = policy.select(query, view)

where *view* is a :class:`~repro.model.view.SystemView` — the one object
bundling everything a decision may look at: the arrival site, the
candidate (and *available*) sites, the load information, the optimizer's
transfer-time estimates, and named random streams.

Figure 3 of the paper gives the selection procedure every cost-based policy
shares::

    function SelectSite(q: query; arrival_site: site): site;
    begin
        best_site := arrival_site;
        min_cost := SiteCost(q, arrival_site);
        foreach remote_site in {sites} - arrival_site do
            cur_cost := SiteCost(q, remote_site);
            if cur_cost < min_cost then ...
    end

with the noted detail that "the 'foreach' loop that examines possible remote
execution sites should scan these sites in a round-robin fashion".  Two
consequences we preserve faithfully:

* the arrival site wins ties (strict ``<``), avoiding pointless transfers;
* ties among *remote* sites are spread around the ring because the scan's
  starting position rotates from decision to decision.

Policies read the view's :class:`~repro.model.loadboard.LoadView` and the
query's optimizer estimates; they never see realized service demands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.model.loadboard import LoadView
from repro.model.query import Query
from repro.model.view import SystemView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import DistributedDatabase


class AllocationPolicy:
    """Chooses the execution site for each newly arrived query.

    Subclasses implement :meth:`select`.
    """

    #: Registry/display name; subclasses override.
    name = "abstract"

    def __init__(self) -> None:
        self.system: Optional["DistributedDatabase"] = None
        #: The view of the decision in progress (or the last one).  Lets
        #: :attr:`loads` and cost functions resolve through the view, so
        #: degraded-mode masking applies without changing their code.
        self._view: Optional[SystemView] = None

    def bind(self, system: "DistributedDatabase") -> None:
        """Attach the policy to a system (called once, before the run)."""
        self.system = system

    @property
    def loads(self) -> LoadView:
        """The load information this policy consults.

        Resolves through the active :class:`~repro.model.view.SystemView`
        when a decision is in progress (so fault masking applies), and
        falls back to the bound system's live view otherwise.
        """
        if self._view is not None:
            return self._view.loads
        if self.system is None:
            raise RuntimeError(f"policy {self.name!r} is not bound to a system")
        return self.system.load_view

    def select(self, query: Query, view: SystemView) -> int:
        """Return the site index that should execute *query*.

        *view* is the single window onto the system: candidates (already
        filtered to available sites), load information, estimates, RNG.
        """
        raise NotImplementedError(f"policy {self.name!r} does not implement select()")

    def recost(
        self, query: Query, view: SystemView, threshold: float = 1.0
    ) -> Optional[int]:
        """Re-cost *query* from ``view.arrival_site``, or ``None`` without costs.

        Policies without a cost function (LOCAL, RANDOM, the threshold
        family) return ``None``: the caller decides what staying put
        means.  See :meth:`CostBasedPolicy.recost`.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<policy {self.name}>"


class CostBasedPolicy(AllocationPolicy):
    """Figure 3's SelectSite over a subclass-provided SiteCost.

    Subclasses implement :meth:`site_cost`; the view supplies the
    candidate set (a replication map narrows it to sites holding a copy
    of the data, the fault layer removes down sites).
    """

    def __init__(self) -> None:
        super().__init__()
        self._scan_offset = 0

    def site_cost(self, query: Query, site: int) -> float:
        """Estimated cost of executing *query* at *site* (lower is better)."""
        raise NotImplementedError

    def select(self, query: Query, view: SystemView) -> int:
        self._view = view
        candidates = view.candidates(query)
        if not candidates:
            raise RuntimeError(f"no candidate sites for query {query.qid}")
        arrival_site = view.arrival_site
        if candidates == [arrival_site]:
            return arrival_site

        if arrival_site in candidates:
            best_site = arrival_site
            min_cost = self.site_cost(query, arrival_site)
        else:
            # Partial replication (no local copy) or a crashed home site:
            # the first candidate seeds the minimum instead.
            best_site = -1
            min_cost = float("inf")

        count = len(candidates)
        start = self._scan_offset % count
        self._scan_offset += 1
        for step in range(count):
            site = candidates[(start + step) % count]
            if site == arrival_site and best_site == arrival_site:
                continue
            cost = self.site_cost(query, site)
            if cost < min_cost:
                min_cost = cost
                best_site = site
        return best_site

    def recost(
        self, query: Query, view: SystemView, threshold: float = 1.0
    ) -> Optional[int]:
        """The cheapest candidate for *query* seen from ``view.arrival_site``.

        Used mid-life-cycle — a subquery stage choosing its site, a
        running query deciding whether to migrate — where the arrival
        site is wherever the query is now.  Candidates are scanned in
        order (no round-robin rotation, so :meth:`select`'s scan state is
        untouched) and the arrival site wins ties.  A candidate other
        than the arrival site is chosen only if its cost times
        *threshold* is still below the cost of staying (hysteresis;
        ``1.0`` means strictly cheaper).  When the arrival site is not a
        candidate the cheapest candidate is returned.
        """
        self._view = view
        here = view.arrival_site
        candidates = view.candidates(query)
        best_site, best_cost = -1, float("inf")
        if here in candidates:
            best_site = here
            best_cost = self.site_cost(query, here)
        stay_cost = best_cost
        for site in candidates:
            if site == here:
                continue
            cost = self.site_cost(query, site)
            if cost < best_cost:
                best_site, best_cost = site, cost
        if best_site != here and best_cost * threshold >= stay_cost:
            return here
        return best_site


__all__ = ["AllocationPolicy", "CostBasedPolicy"]
