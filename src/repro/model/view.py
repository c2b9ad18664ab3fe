"""The policies' window onto the system: :class:`SystemView`.

The redesigned policy API (PR 4) gives every allocation decision exactly
one input besides the query: a ``SystemView``.  The view bundles what a
policy is *allowed* to see —

* the arrival site of the decision,
* the candidate sites (filtered down to *available* sites when a fault
  injector is installed),
* the load information (masked so that entries for down sites read zero,
  and frozen-stale while load broadcasts are dark),
* the optimizer's transfer-time estimates, and
* named random streams for randomized policies —

and nothing else.  Policies therefore cannot accidentally depend on live
model internals, and degraded-mode behaviour (skip down sites, fall back
to LOCAL, fall back to anything that is up) comes for free: the view
simply never offers an unavailable site.

Everything is resolved lazily, so a view over a faultless system costs
one small object per decision and never touches the fault layer.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.faults.errors import NoAvailableSiteError
from repro.model.loadboard import LoadView
from repro.model.query import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.model.config import SystemConfig


class MaskedLoadView(LoadView):
    """A load view with the entries of down sites masked to zero.

    The paper's load board is an oracle; once sites can crash, the honest
    model is that a crashed site stops broadcasting and its last entry is
    *known stale*.  Policies should not be attracted to a zero-load ghost,
    so the view both masks the entry and (through
    :meth:`SystemView.candidates`) removes the site from consideration.
    """

    def __init__(self, base: LoadView, is_up: List[bool]) -> None:
        self._base = base
        self._is_up = is_up

    def num_queries(self, site: int) -> int:
        return self._base.num_queries(site) if self._is_up[site] else 0

    def num_io_queries(self, site: int) -> int:
        return self._base.num_io_queries(site) if self._is_up[site] else 0

    def num_cpu_queries(self, site: int) -> int:
        return self._base.num_cpu_queries(site) if self._is_up[site] else 0

    def query_distribution(self) -> List[int]:
        base = self._base.query_distribution()
        return [n if self._is_up[s] else 0 for s, n in enumerate(base)]


class SystemView:
    """Everything one allocation decision may look at.

    Args:
        system: The system (or a stub exposing ``config``, ``sites``,
            ``candidate_sites``, ``load_view``, ``load_info_age``,
            ``estimated_transfer_time``, ``estimated_return_time`` and
            ``sim`` as needed — attributes are resolved lazily, so test
            stubs only need what the policy under test actually touches).
        arrival_site: The site whose terminal issued the query.
        injector: The fault injector when a plan is installed; ``None``
            for faultless runs (the view then adds zero overhead).
    """

    __slots__ = ("system", "arrival_site", "injector")

    def __init__(
        self,
        system: object,
        arrival_site: int,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.system = system
        self.arrival_site = arrival_site
        self.injector = injector

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def config(self) -> "SystemConfig":
        """The system's configuration (read-only model parameters)."""
        return self.system.config  # type: ignore[attr-defined]

    @property
    def num_sites(self) -> int:
        return int(self.config.num_sites)

    def is_available(self, site: int) -> bool:
        """Whether *site* is currently up (always True without faults)."""
        if self.injector is None:
            return True
        return self.injector.is_up(site)

    def cpu_speed(self, site: int) -> float:
        """CPU speed factor of *site* (1.0 on the paper's homogeneous system)."""
        return float(self.system.sites[site].cpu_speed)  # type: ignore[attr-defined]

    def candidates(self, query: Query) -> List[int]:
        """Sites eligible *and available* to execute *query*, in order.

        Raises:
            NoAvailableSiteError: When every eligible site is down; the
                degraded query life cycle catches this and backs off.
        """
        eligible = self.system.candidate_sites(query)  # type: ignore[attr-defined]
        if self.injector is None:
            return list(eligible)
        available = [site for site in eligible if self.injector.is_up(site)]
        if not available:
            raise NoAvailableSiteError(
                f"no available site for query {query.qid} "
                f"(eligible: {list(eligible)})"
            )
        return available

    # ------------------------------------------------------------------
    # Load information
    # ------------------------------------------------------------------
    @property
    def loads(self) -> LoadView:
        """The load information this decision may consult.

        Without faults this is the system's load view (the paper's
        oracle, or the last broadcast snapshot when the system refreshes
        load information periodically).  With a
        fault injector, entries for down sites are masked to zero, and
        while load broadcasts are dark the *frozen* snapshot from outage
        start is served instead of live counts.
        """
        injector = self.injector
        if injector is None:
            return self.system.load_view  # type: ignore[attr-defined]
        dark = injector.dark_view
        base: LoadView = dark if dark is not None else self.system.load_view  # type: ignore[attr-defined]
        is_up = [injector.is_up(s) for s in range(self.num_sites)]
        if all(is_up):
            return base
        return MaskedLoadView(base, is_up)

    def load_info_age(self) -> float:
        """Age of the load information (0.0 for the oracle board)."""
        return float(self.system.load_info_age())  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Optimizer estimates
    # ------------------------------------------------------------------
    def estimated_transfer_time(self, query: Query) -> float:
        """Figure 6's ``Transfer_Time(q)`` (optimizer view)."""
        return float(self.system.estimated_transfer_time(query))  # type: ignore[attr-defined]

    def estimated_return_time(self, query: Query) -> float:
        """Figure 6's ``Return_Time(q)`` (optimizer view)."""
        return float(self.system.estimated_return_time(query))  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """The run's named random stream *name* (for randomized policies)."""
        return self.system.sim.rng.stream(name)  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        faulty = "" if self.injector is None else " degraded"
        return f"<SystemView arrival={self.arrival_site}{faulty}>"


__all__ = ["MaskedLoadView", "SystemView"]
