"""Statistics monitors: observation tallies and time-weighted averages.

Two kinds of monitors cover everything the experiments need:

* :class:`Tally` — for *observational* statistics: waiting times, response
  times, normalized waits.  Supports mean, variance, min/max, and optional
  retention of raw observations for batch-means analysis.
* :class:`TimeWeighted` — for *time-persistent* statistics: queue lengths,
  number of busy servers, channel utilization.  Integrates the tracked value
  over simulated time.

Both support :meth:`reset`, which experiments call at the end of the warmup
period so that reported statistics cover only the steady-state window.
"""

from __future__ import annotations

import math
from typing import List

from repro.sim.errors import MonitorError


class Tally:
    """Running statistics over a stream of observations.

    Uses Welford's algorithm for a numerically stable variance.  When
    ``keep`` is true, raw observations are retained (needed for batch-means
    confidence intervals, see :mod:`repro.sim.stats`).
    """

    __slots__ = (
        "name",
        "keep",
        "observations",
        "_count",
        "_mean",
        "_m2",
        "_min",
        "_max",
        "_total",
    )

    def __init__(self, name: str = "", keep: bool = False) -> None:
        self.name = name
        self.keep = keep
        self.observations: List[float] = []
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def record(self, value: float) -> None:
        """Record one observation."""
        if value != value:  # NaN guard
            raise MonitorError(f"Tally {self.name!r}: NaN observation")
        self._count += 1
        self._total += value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self.keep:
            self.observations.append(value)

    def reset(self) -> None:
        """Discard everything recorded so far (warmup truncation)."""
        self.observations.clear()
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        """Sample mean; 0.0 when no observations have been recorded."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance; 0.0 with fewer than two observations."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if not self._count:
            raise MonitorError(f"Tally {self.name!r}: min of empty tally")
        return self._min

    @property
    def maximum(self) -> float:
        if not self._count:
            raise MonitorError(f"Tally {self.name!r}: max of empty tally")
        return self._max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tally {self.name!r} n={self._count} mean={self.mean:.6g}>"


class TimeWeighted:
    """Time-integrated average of a piecewise-constant quantity.

    Call :meth:`set` (or :meth:`add`) whenever the tracked value changes.
    The time-average over the observation window is
    ``integral / elapsed-time``.
    """

    __slots__ = ("sim", "name", "_value", "_area", "_start", "_last", "_max")

    def __init__(self, sim, name: str = "", initial: float = 0.0) -> None:
        self.sim = sim
        self.name = name
        self._value = initial
        self._area = 0.0
        self._start = sim.now
        self._last = sim.now
        self._max = initial

    @property
    def value(self) -> float:
        """Current value of the tracked quantity."""
        return self._value

    def set(self, value: float) -> None:
        """Change the tracked value at the current simulated time.

        Inlined ``_advance`` (the PS server's busy flag calls this at
        every idle/busy switch), in its float order.
        """
        now = self.sim.now
        last = self._last
        if now < last:
            raise MonitorError(
                f"TimeWeighted {self.name!r}: clock moved backwards "
                f"({now} < {last})"
            )
        self._area += self._value * (now - last)
        self._last = now
        self._value = value
        if value > self._max:
            self._max = value

    def add(self, delta: float) -> None:
        """Increment the tracked value (e.g. queue length +1/-1).

        Inlined ``set(value + delta)`` — this is the kernel's hottest
        monitor call (every server arrival/departure), and the float
        operations run in exactly :meth:`set`'s order so time-weighted
        integrals stay bit-identical.
        """
        now = self.sim.now
        last = self._last
        if now < last:
            raise MonitorError(
                f"TimeWeighted {self.name!r}: clock moved backwards "
                f"({now} < {last})"
            )
        value = self._value
        self._area += value * (now - last)
        self._last = now
        value = value + delta
        self._value = value
        if value > self._max:
            self._max = value

    def reset(self) -> None:
        """Restart the observation window at the current time.

        The current *value* is preserved; only the accumulated area is
        discarded.  Experiments call this at the end of warmup.
        """
        self._area = 0.0
        self._start = self.sim.now
        self._last = self.sim.now
        self._max = self._value

    def _advance(self) -> None:
        now = self.sim.now
        if now < self._last:
            raise MonitorError(
                f"TimeWeighted {self.name!r}: clock moved backwards "
                f"({now} < {self._last})"
            )
        self._area += self._value * (now - self._last)
        self._last = now

    @property
    def integral(self) -> float:
        """Accumulated value·time integral since the observation start.

        Reading it advances the internal bookkeeping to ``sim.now`` (a
        pure consolidation — the time-average and all later readings are
        unchanged), so samplers can difference successive readings to get
        exact per-interval averages.
        """
        self._advance()
        return self._area

    @property
    def elapsed(self) -> float:
        return self.sim.now - self._start

    @property
    def time_average(self) -> float:
        """Time-average of the value over the observation window."""
        self._advance()
        if self.elapsed <= 0:
            return self._value
        return self._area / self.elapsed

    @property
    def maximum(self) -> float:
        return self._max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimeWeighted {self.name!r} value={self._value:.6g} "
            f"avg={self.time_average:.6g}>"
        )


__all__ = ["Tally", "TimeWeighted"]
