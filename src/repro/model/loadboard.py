"""Global load information shared by the allocation policies.

The paper assumes "each site knows the current loads of all other sites"
and defers the design of the information-exchange policy.  The
:class:`LoadBoard` is that oracle: an always-current table of how many
I/O-bound and CPU-bound queries are committed to each site.

A query is counted at its *execution* site from the instant the allocation
decision is made (it is committed there even while in transit on the ring)
until its results have been delivered back to the home terminal.  This
matches the information a real implementation could track: allocations are
announced, completions are announced.

With ``Mechanisms(refresh_interval=...)`` the policies see
periodically refreshed :class:`FrozenLoadView` snapshots instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.model.query import Query
from repro.telemetry.events import LoadBoardUpdated

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.telemetry.bus import EventBus


class LoadView:
    """Read-only interface the policies use to inspect site loads."""

    def num_queries(self, site: int) -> int:
        """Total queries committed to *site* (any class)."""
        raise NotImplementedError

    def num_io_queries(self, site: int) -> int:
        """I/O-bound queries committed to *site*."""
        raise NotImplementedError

    def num_cpu_queries(self, site: int) -> int:
        """CPU-bound queries committed to *site*."""
        raise NotImplementedError

    def query_distribution(self) -> List[int]:
        """The paper's vector N = [n_1 ... n_S]."""
        raise NotImplementedError


class LoadBoard(LoadView):
    """Perfect-information load table (the paper's assumption).

    Args:
        num_sites: Number of sites tracked.
        bus: Optional telemetry bus; registrations publish
            :class:`~repro.telemetry.events.LoadBoardUpdated` (guarded —
            no cost when nothing subscribes).
        clock: The simulator whose clock timestamps the events; required
            when *bus* is given.
    """

    def __init__(
        self,
        num_sites: int,
        *,
        bus: Optional["EventBus"] = None,
        clock: Optional["Simulator"] = None,
    ) -> None:
        if num_sites < 1:
            raise ValueError("need at least one site")
        if bus is not None and clock is None:
            raise ValueError("a LoadBoard with a bus needs a clock")
        self._io: List[int] = [0] * num_sites
        self._cpu: List[int] = [0] * num_sites
        self.num_sites = num_sites
        self._bus = bus
        self._clock = clock

    # ------------------------------------------------------------------
    # Writers (called by the system as queries come and go)
    # ------------------------------------------------------------------
    def _announce(self, site: int, change: int) -> None:
        bus = self._bus
        if bus is None or not bus.active or not bus.wants(LoadBoardUpdated):
            return
        assert self._clock is not None  # guaranteed by __init__
        bus.emit(
            LoadBoardUpdated(
                time=self._clock.now,
                site=site,
                io_queries=self._io[site],
                cpu_queries=self._cpu[site],
                change=change,
            )
        )

    def register(self, query: Query, site: int) -> None:
        """Commit *query* to *site* (at allocation time)."""
        if query.io_bound:
            self._io[site] += 1
        else:
            self._cpu[site] += 1
        self._announce(site, +1)

    def deregister(self, query: Query, site: int) -> None:
        """Remove *query* from *site* (results delivered)."""
        if query.io_bound:
            self._io[site] -= 1
            if self._io[site] < 0:
                raise ValueError(f"site {site}: negative I/O-bound count")
        else:
            self._cpu[site] -= 1
            if self._cpu[site] < 0:
                raise ValueError(f"site {site}: negative CPU-bound count")
        self._announce(site, -1)

    # ------------------------------------------------------------------
    # LoadView
    # ------------------------------------------------------------------
    def num_queries(self, site: int) -> int:
        return self._io[site] + self._cpu[site]

    def num_io_queries(self, site: int) -> int:
        return self._io[site]

    def num_cpu_queries(self, site: int) -> int:
        return self._cpu[site]

    def query_distribution(self) -> List[int]:
        return [self._io[s] + self._cpu[s] for s in range(self.num_sites)]

    def snapshot(self) -> "FrozenLoadView":
        """An immutable copy (the periodic load broadcast's snapshot)."""
        return FrozenLoadView(tuple(self._io), tuple(self._cpu))

    @property
    def total_queries(self) -> int:
        return sum(self._io) + sum(self._cpu)


class FrozenLoadView(LoadView):
    """An immutable load snapshot."""

    def __init__(self, io_counts: Sequence[int], cpu_counts: Sequence[int]) -> None:
        self._io = tuple(io_counts)
        self._cpu = tuple(cpu_counts)

    def num_queries(self, site: int) -> int:
        return self._io[site] + self._cpu[site]

    def num_io_queries(self, site: int) -> int:
        return self._io[site]

    def num_cpu_queries(self, site: int) -> int:
        return self._cpu[site]

    def query_distribution(self) -> List[int]:
        return [io + cpu for io, cpu in zip(self._io, self._cpu)]


__all__ = ["LoadView", "LoadBoard", "FrozenLoadView"]
