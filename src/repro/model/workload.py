"""Workload generation: turning Table 7's distributions into queries.

Per the paper's §5.1:

* the class of a new query is I/O-bound with probability ``class_io_prob``
  (generally: drawn from ``class_probs``);
* the number of reads has an exponential distribution with mean
  ``num_reads`` (rounded to an integer cycle count for execution; the raw
  draw is kept as the optimizer's estimate);
* CPU bursts are exponential with the class's ``page_cpu_time`` mean;
* disk service times are uniform on ``disk_time ± disk_time*disk_time_dev``;
* think times are exponential with mean ``think_time``.

Every query gets its *own* derived random stream (keyed by home site,
terminal, and serial number), so the sequence of queries **and their
realized service demands** is identical across allocation policies under the
same master seed.  This is the common-random-numbers discipline that makes
policy comparisons low-variance: BNQ and LERT face literally the same
workload, they only place it differently.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.model.config import SystemConfig
from repro.model.query import Query, make_query
from repro.sim.engine import Simulator
from repro.telemetry.events import QueryCreated


class WorkloadGenerator:
    """Samples queries and their service demands for one simulation run."""

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        self.sim = sim
        self.config = config
        # Per-run query id counter.  Query ids seed derived random streams
        # for some mechanisms (e.g. update application), so they must be a
        # pure function of the run, not of process history — the
        # process-global default counter in ``repro.model.query`` would
        # make results depend on how many simulations ran earlier in the
        # same process and break serial/parallel bit-equality.
        self._queries_created = 0
        # Cumulative class probabilities for inverse-CDF class sampling.
        # SystemConfig validates that class_probs sums to 1.0 within 1e-9,
        # and _sample_class falls through to the last class anyway, so no
        # rounding absorption is needed at cumulative[-1].
        cumulative = []
        acc = 0.0
        for p in config.class_probs:
            acc += p
            cumulative.append(acc)
        self._cumulative_probs = tuple(cumulative)

    # ------------------------------------------------------------------
    # Query creation
    # ------------------------------------------------------------------
    def new_query(
        self, home_site: int, terminal_id: int, serial: int
    ) -> Tuple[Query, random.Random]:
        """Create the next query for a terminal.

        Returns the query plus its private random stream; the stream is used
        for every stochastic choice the query makes while executing (CPU
        bursts, disk times, disk selection), keeping realized demands
        policy-independent.
        """
        query_rng = self.sim.rng.once(
            f"query.s{home_site}.t{terminal_id}.n{serial}"
        )
        return self._build_query(home_site, query_rng), query_rng

    def new_open_query(
        self, home_site: int, serial: int
    ) -> Tuple[Query, random.Random]:
        """Create the *serial*-th open-workload arrival at *home_site*.

        The open analogue of :meth:`new_query`: same class sampling and
        demand draws, but the derived stream is keyed by the site's
        offered-arrival serial number rather than a terminal — open
        arrivals have no terminal, and serials count *offered* arrivals
        (shed included) so the stream never depends on admission limits.
        """
        query_rng = self.sim.rng.once(f"query.s{home_site}.open.n{serial}")
        return self._build_query(home_site, query_rng), query_rng

    def _build_query(self, home_site: int, query_rng: random.Random) -> Query:
        """Sample one query's class and demands from its private stream."""
        class_index = self._sample_class(query_rng)
        spec = self.config.classes[class_index]
        estimated_reads = query_rng.expovariate(1.0 / spec.num_reads)
        self._queries_created += 1
        query = make_query(
            self.config,
            class_index=class_index,
            home_site=home_site,
            estimated_reads=estimated_reads,
            created_at=self.sim.now,
            qid=self._queries_created,
        )
        bus = self.sim.bus
        if bus.active and bus.wants(QueryCreated):
            bus.emit(
                QueryCreated(
                    time=self.sim.now,
                    qid=query.qid,
                    class_name=spec.name,
                    home_site=home_site,
                    estimated_reads=estimated_reads,
                )
            )
        return query

    def _sample_class(self, rng: random.Random) -> int:
        u = rng.random()
        for index, threshold in enumerate(self._cumulative_probs):
            if u < threshold:
                return index
        return len(self._cumulative_probs) - 1

    # ------------------------------------------------------------------
    # Per-activity service-time draws
    # ------------------------------------------------------------------
    def think_time(self, rng: random.Random) -> float:
        """One terminal think period."""
        mean = self.config.site.think_time
        if mean <= 0:
            return 0.0
        return rng.expovariate(1.0 / mean)

    def disk_time_bounds(self) -> Tuple[float, Optional[float]]:
        """A page read's service time, U(disk_time ± dev·disk_time).

        Returns ``(low, width)``: a read takes ``low + width * u`` for
        one ``u = rng.random()``, which is ``rng.uniform`` over the band
        in its own float order, or exactly ``low`` without a draw when
        *width* is ``None`` (``disk_time_dev == 0``).
        """
        spec = self.config.site
        half_width = spec.disk_time * spec.disk_time_dev
        if half_width == 0:
            return spec.disk_time, None
        low = spec.disk_time - half_width
        return low, (spec.disk_time + half_width) - low


__all__ = ["WorkloadGenerator"]
