"""Arrival processes: how queries enter the system.

The paper's model is *closed*: ``mpl`` terminals per site in a
think/submit loop, so offered load self-regulates with response time and
the system can never be overloaded.  :class:`ClosedTerminals` keeps that
behaviour (byte-identical to the original wiring); the other processes
open the system:

* :class:`PoissonOpen` — homogeneous Poisson arrivals, per site or
  global (routed uniformly over sites);
* :class:`MMPP` — a cyclic Markov-modulated Poisson process: the
  arrival rate switches between phases (burst / lull) after
  exponential holding times, the standard model for flash crowds;
* :class:`DiurnalRate` — a sinusoidal time-varying intensity realized
  by thinning, the classic diurnal load curve;
* :class:`TraceDriven` — replay of a recorded ``(time, site)`` arrival
  trace (JSONL via :meth:`TraceDriven.from_jsonl`).

Every process draws from its own named random stream
(``workload.<kind>...``), so arrivals are a pure function of
``(seed, spec)`` — adding or removing an arrival process can never
perturb the draws of another activity, and serial vs ``--jobs N``
replays stay byte-identical.

All spec classes are frozen, hashable dataclasses built from primitives
and tuples only, so a :class:`~repro.workloads.spec.WorkloadSpec` can be
folded into the content-addressed cache key and round-tripped through
JSON (:func:`repro.codec.to_dict`, tagged by each class's ``kind``).
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Generator,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.sim.process import Hold
from repro.workloads.errors import WorkloadError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.config import SystemConfig
    from repro.model.system import DistributedDatabase
    from repro.workloads.driver import WorkloadDriver


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise WorkloadError(f"{name} must be finite, got {value!r}")


@runtime_checkable
class ArrivalProcess(Protocol):
    """The protocol every arrival process implements.

    An arrival process is pure data plus two behaviours: validate itself
    against a concrete system configuration, and launch its driving
    simulation processes.  The built-ins below serialize and enter cache
    keys; custom implementations work at run time but are rejected by
    :func:`repro.codec.to_dict`.
    """

    @property
    def kind(self) -> str:
        """Stable identifier of the process family (its JSON tag)."""
        ...

    def validate_for(self, config: "SystemConfig") -> None:
        """Raise :class:`WorkloadError` if *config* cannot host this process."""
        ...

    def launch(
        self, system: "DistributedDatabase", driver: "WorkloadDriver"
    ) -> None:
        """Start the driving processes on ``system.sim`` (at time 0)."""
        ...


# ----------------------------------------------------------------------
# Pure sampling helpers (unit-testable without a simulator)
# ----------------------------------------------------------------------


def next_thinned_gap(
    rng: random.Random,
    lam_max: float,
    intensity: Callable[[float], float],
    now: float,
) -> float:
    """Gap to the next arrival of a non-homogeneous Poisson process.

    Lewis–Shedler thinning: candidate points arrive at the majorizing
    rate ``lam_max``; a candidate at time ``t`` is accepted with
    probability ``intensity(t) / lam_max``.  The accepted point stream
    is exactly a non-homogeneous Poisson process with rate
    ``intensity``.

    Raises:
        WorkloadError: If ``lam_max`` is not positive or ``intensity``
            ever exceeds it (the majorizer must dominate).
    """
    if not lam_max > 0:
        raise WorkloadError(f"lam_max must be > 0, got {lam_max}")
    t = now
    while True:
        t += rng.expovariate(lam_max)
        rate = intensity(t)
        if rate > lam_max:
            raise WorkloadError(
                f"intensity {rate} exceeds its majorizer lam_max={lam_max}"
            )
        if rng.random() * lam_max < rate:
            return t - now


class PhaseTrack:
    """Lazily realized phase timeline of a cyclic modulating chain.

    Phase ``i`` holds for an exponential time with mean
    ``holding_means[i]``, then the chain moves to phase
    ``(i + 1) % n``.  :meth:`phase_at` realizes the timeline on demand
    for nondecreasing query times, drawing each holding time exactly
    once from the owning stream — so the phase path is a pure function
    of the stream, regardless of how often (or at which times) it is
    observed.
    """

    def __init__(
        self,
        rng: random.Random,
        holding_means: Sequence[float],
        start_phase: int = 0,
    ) -> None:
        if not holding_means:
            raise WorkloadError("need at least one phase holding mean")
        if not 0 <= start_phase < len(holding_means):
            raise WorkloadError(
                f"start_phase {start_phase} out of range for "
                f"{len(holding_means)} phases"
            )
        self._rng = rng
        self._means = tuple(holding_means)
        self._phase = start_phase
        self._next_change = rng.expovariate(1.0 / self._means[start_phase])
        self._last_query = -math.inf

    @property
    def phase(self) -> int:
        """The most recently realized phase."""
        return self._phase

    def phase_at(self, t: float) -> int:
        """The chain's phase at time *t* (*t* must be nondecreasing)."""
        if t < self._last_query:
            raise WorkloadError(
                f"phase_at times must be nondecreasing: {t} after "
                f"{self._last_query}"
            )
        self._last_query = t
        while t >= self._next_change:
            self._phase = (self._phase + 1) % len(self._means)
            self._next_change += self._rng.expovariate(
                1.0 / self._means[self._phase]
            )
        return self._phase


# ----------------------------------------------------------------------
# The built-in arrival processes
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClosedTerminals:
    """The paper's closed workload: ``mpl`` think/submit terminals per site.

    This is the default; a :class:`~repro.workloads.spec.WorkloadSpec`
    carrying it (and no admission control) normalizes to ``None``, so the
    run — and its cache key and golden digests — is byte-identical to one
    constructed without any workload argument.
    """

    codec_tag: ClassVar[str] = "kind"
    kind: ClassVar[str] = "closed"

    def validate_for(self, config: "SystemConfig") -> None:
        if config.site.mpl < 1:
            raise WorkloadError(
                f"closed terminals need mpl >= 1, got {config.site.mpl}"
            )

    def launch(
        self, system: "DistributedDatabase", driver: "WorkloadDriver"
    ) -> None:
        from repro.workloads.closed import launch_closed_terminals

        launch_closed_terminals(system)


@dataclass(frozen=True, slots=True)
class PoissonOpen:
    """Open Poisson arrivals.

    Attributes:
        rate: Arrival rate (> 0) — per site when ``per_site`` is true,
            otherwise the system-wide rate, with each arrival routed to
            a uniformly random home site.
    """

    codec_tag: ClassVar[str] = "kind"
    kind: ClassVar[str] = "poisson"

    rate: float
    per_site: bool = True

    def __post_init__(self) -> None:
        _require_finite("rate", self.rate)
        if self.rate <= 0:
            raise WorkloadError(f"rate must be > 0, got {self.rate}")

    def validate_for(self, config: "SystemConfig") -> None:
        del config  # any topology hosts Poisson arrivals

    def launch(
        self, system: "DistributedDatabase", driver: "WorkloadDriver"
    ) -> None:
        if self.per_site:
            for site in range(system.config.num_sites):
                system.sim.launch(
                    _poisson_site_arrivals(system, driver, site, self.rate),
                    name=f"workload.poisson.s{site}",
                )
        else:
            system.sim.launch(
                _poisson_global_arrivals(system, driver, self.rate),
                name="workload.poisson.global",
            )


@dataclass(frozen=True, slots=True)
class MMPP:
    """A cyclic Markov-modulated Poisson process (bursts / flash crowds).

    While the modulating chain sits in phase ``i`` arrivals are Poisson
    with rate ``rates[i]``; the chain holds each phase for an
    exponential time with mean ``mean_holding[i]`` and then advances
    cyclically.  Realized by thinning against ``max(rates)``, with the
    phase path drawn from its own stream, so the modulation and the
    arrival candidates never share draws.

    Attributes:
        rates: Per-phase arrival rates (each >= 0, at least one > 0).
        mean_holding: Per-phase mean holding times (each > 0), same
            length as ``rates``.
        per_site: One independent MMPP per site (true) or a single
            system-wide process routed uniformly (false is not yet
            supported; kept for symmetry and validated away).
    """

    codec_tag: ClassVar[str] = "kind"
    kind: ClassVar[str] = "mmpp"

    rates: Tuple[float, ...]
    mean_holding: Tuple[float, ...]
    per_site: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(self.rates))
        object.__setattr__(self, "mean_holding", tuple(self.mean_holding))
        if len(self.rates) < 2:
            raise WorkloadError(
                f"an MMPP needs at least 2 phases, got {len(self.rates)}"
            )
        if len(self.rates) != len(self.mean_holding):
            raise WorkloadError(
                f"{len(self.rates)} rates for {len(self.mean_holding)} "
                "holding means"
            )
        for rate in self.rates:
            _require_finite("rate", rate)
            if rate < 0:
                raise WorkloadError(f"rates must be >= 0, got {rate}")
        if not any(rate > 0 for rate in self.rates):
            raise WorkloadError("at least one MMPP phase rate must be > 0")
        for mean in self.mean_holding:
            _require_finite("mean_holding", mean)
            if mean <= 0:
                raise WorkloadError(f"mean_holding must be > 0, got {mean}")
        if not self.per_site:
            raise WorkloadError("MMPP currently supports per_site=True only")

    def validate_for(self, config: "SystemConfig") -> None:
        del config

    def launch(
        self, system: "DistributedDatabase", driver: "WorkloadDriver"
    ) -> None:
        for site in range(system.config.num_sites):
            system.sim.launch(
                _mmpp_site_arrivals(system, driver, site, self),
                name=f"workload.mmpp.s{site}",
            )


@dataclass(frozen=True, slots=True)
class DiurnalRate:
    """Sinusoidal time-varying arrivals (the diurnal load curve).

    The per-site intensity is
    ``base_rate * (1 + amplitude * sin(2*pi*t / period))`` — peaks at
    ``base_rate * (1 + amplitude)``, troughs at
    ``base_rate * (1 - amplitude)`` — realized exactly by thinning.

    Attributes:
        base_rate: Mean arrival rate per site (> 0).
        amplitude: Relative swing around the mean, in ``[0, 1]``.
        period: Length of one full day/cycle in simulated time (> 0).
    """

    codec_tag: ClassVar[str] = "kind"
    kind: ClassVar[str] = "diurnal"

    base_rate: float
    amplitude: float
    period: float
    per_site: bool = True

    def __post_init__(self) -> None:
        _require_finite("base_rate", self.base_rate)
        _require_finite("amplitude", self.amplitude)
        _require_finite("period", self.period)
        if self.base_rate <= 0:
            raise WorkloadError(f"base_rate must be > 0, got {self.base_rate}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise WorkloadError(
                f"amplitude must be in [0, 1], got {self.amplitude}"
            )
        if self.period <= 0:
            raise WorkloadError(f"period must be > 0, got {self.period}")
        if not self.per_site:
            raise WorkloadError(
                "DiurnalRate currently supports per_site=True only"
            )

    def intensity_at(self, t: float) -> float:
        """The instantaneous arrival rate at simulated time *t*."""
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    @property
    def peak_rate(self) -> float:
        """The majorizing rate used for thinning."""
        return self.base_rate * (1.0 + self.amplitude)

    def validate_for(self, config: "SystemConfig") -> None:
        del config

    def launch(
        self, system: "DistributedDatabase", driver: "WorkloadDriver"
    ) -> None:
        for site in range(system.config.num_sites):
            system.sim.launch(
                _diurnal_site_arrivals(system, driver, site, self),
                name=f"workload.diurnal.s{site}",
            )


@dataclass(frozen=True, slots=True)
class TraceDriven:
    """Replay a recorded arrival trace.

    Attributes:
        arrivals: ``(time, site)`` pairs, nondecreasing in time.  Stored
            inline (not as a file path) so the spec stays hashable and
            content-addressed: two runs replaying the same trace share a
            cache key, whatever file it came from.
    """

    codec_tag: ClassVar[str] = "kind"
    kind: ClassVar[str] = "trace"

    arrivals: Tuple[Tuple[float, int], ...]

    def __post_init__(self) -> None:
        normalized = tuple(
            (float(time), int(site)) for time, site in self.arrivals
        )
        object.__setattr__(self, "arrivals", normalized)
        if not normalized:
            raise WorkloadError("a trace-driven workload needs >= 1 arrival")
        previous = 0.0
        for time, site in normalized:
            _require_finite("arrival time", time)
            if time < previous:
                raise WorkloadError(
                    f"trace times must be nondecreasing: {time} after "
                    f"{previous}"
                )
            if time < 0:
                raise WorkloadError(f"arrival times must be >= 0, got {time}")
            if site < 0:
                raise WorkloadError(f"sites must be >= 0, got {site}")
            previous = time

    @classmethod
    def from_jsonl(cls, path: Union[str, pathlib.Path]) -> "TraceDriven":
        """Load a trace from JSONL: one ``{"time": t, "site": s}`` per line."""
        arrivals = []
        text = pathlib.Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                arrivals.append((float(record["time"]), int(record["site"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                raise WorkloadError(
                    f"{path}:{lineno}: expected a "
                    '{"time": <number>, "site": <int>} record'
                ) from None
        return cls(arrivals=tuple(arrivals))

    def validate_for(self, config: "SystemConfig") -> None:
        for _, site in self.arrivals:
            if site >= config.num_sites:
                raise WorkloadError(
                    f"trace names site {site}, but the system has only "
                    f"{config.num_sites} sites"
                )

    def launch(
        self, system: "DistributedDatabase", driver: "WorkloadDriver"
    ) -> None:
        system.sim.launch(
            _trace_arrivals(system, driver, self.arrivals),
            name="workload.trace",
        )


#: The serializable arrival-process types (what cache keys understand).
ArrivalSpec = Union[ClosedTerminals, PoissonOpen, MMPP, DiurnalRate, TraceDriven]


# ----------------------------------------------------------------------
# Driving processes (generators launched on the simulator)
# ----------------------------------------------------------------------


def _poisson_site_arrivals(
    system: "DistributedDatabase",
    driver: "WorkloadDriver",
    site: int,
    rate: float,
) -> Generator[object, object, None]:
    """One site's Poisson arrival stream."""
    rng = system.sim.rng.stream(f"workload.poisson.s{site}")
    while True:
        yield Hold(rng.expovariate(rate))
        driver.submit(site)


def _poisson_global_arrivals(
    system: "DistributedDatabase", driver: "WorkloadDriver", rate: float
) -> Generator[object, object, None]:
    """The system-wide Poisson stream, routed uniformly over sites."""
    gap_rng = system.sim.rng.stream("workload.poisson.global")
    route_rng = system.sim.rng.stream("workload.poisson.route")
    num_sites = system.config.num_sites
    while True:
        yield Hold(gap_rng.expovariate(rate))
        driver.submit(route_rng.randrange(num_sites))


def _mmpp_site_arrivals(
    system: "DistributedDatabase",
    driver: "WorkloadDriver",
    site: int,
    spec: MMPP,
) -> Generator[object, object, None]:
    """One site's MMPP stream: thinning against the phase-modulated rate."""
    sim = system.sim
    rng = sim.rng.stream(f"workload.mmpp.s{site}")
    track = PhaseTrack(
        sim.rng.stream(f"workload.mmpp.phase.s{site}"), spec.mean_holding
    )
    rates = spec.rates
    lam_max = max(rates)

    def modulated(t: float) -> float:
        return rates[track.phase_at(t)]

    while True:
        yield Hold(next_thinned_gap(rng, lam_max, modulated, sim.now))
        driver.submit(site)


def _diurnal_site_arrivals(
    system: "DistributedDatabase",
    driver: "WorkloadDriver",
    site: int,
    spec: DiurnalRate,
) -> Generator[object, object, None]:
    """One site's diurnal stream: thinning against the sinusoid's peak."""
    sim = system.sim
    rng = sim.rng.stream(f"workload.diurnal.s{site}")
    peak = spec.peak_rate
    while True:
        yield Hold(next_thinned_gap(rng, peak, spec.intensity_at, sim.now))
        driver.submit(site)


def _trace_arrivals(
    system: "DistributedDatabase",
    driver: "WorkloadDriver",
    arrivals: Tuple[Tuple[float, int], ...],
) -> Generator[object, object, None]:
    """Replay a recorded trace (no randomness at all)."""
    sim = system.sim
    for time, site in arrivals:
        gap = time - sim.now
        if gap > 0:
            yield Hold(gap)
        driver.submit(site)


__all__ = [
    "ArrivalProcess",
    "ArrivalSpec",
    "ClosedTerminals",
    "PoissonOpen",
    "MMPP",
    "DiurnalRate",
    "TraceDriven",
    "PhaseTrack",
    "next_thinned_gap",
]
