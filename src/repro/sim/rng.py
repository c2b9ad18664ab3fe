"""Random-number streams and service-time distributions.

Reproducible stochastic simulation needs *independent, named* random streams:
one stream per stochastic activity (think times, CPU demands, disk times,
routing choices, ...) so that changing how often one activity draws numbers
does not perturb any other activity.  This is the classic
common-random-numbers discipline used for variance reduction when comparing
policies: two runs with the same seed but different allocation policies see
identical workloads.

:class:`RandomStreams` derives each named stream deterministically from a
master seed, so ``RandomStreams(7).stream("think")`` is the same sequence in
every run of every process.

Distributions are small frozen objects that *describe* a distribution; they
are sampled through a stream: ``dist.sample(rng)``.  This keeps workload
specifications (:mod:`repro.model.config`) declarative and serializable.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sim.errors import SimulationError


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from a master seed and a stream name.

    Uses BLAKE2b rather than ``hash()`` so the derivation is stable across
    interpreter runs and Python versions (``PYTHONHASHSEED`` does not leak
    into simulation results).
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RandomStreams:
    """A family of independent named random streams under one master seed.

    Two ways to fetch a named stream, both seeded by the same derivation
    (so a name gives the same sequence either way):

    * :meth:`stream` caches the generator, so every fetch of a name
      continues one sequence.  Use it for long-lived activities that
      draw over the whole run (think times, policy choices, faults).
    * :meth:`once` returns a fresh generator that the family does not
      keep.  Use it for a name fetched exactly once whose generator the
      caller holds for as long as it draws — one query's demands, one
      update's apply — so a run does not keep a dead generator for every
      query it has ever issued, and memory does not grow with run length.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it on first use.

        Streams are cached: repeated calls return the same generator object,
        which keeps drawing from where it left off.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def once(self, name: str) -> random.Random:
        """Return a new, uncached generator for *name*.

        Same seed as ``stream(name)`` would get, but nothing is kept: a
        second call starts the sequence over.  Fetch each one-shot name
        once and hold the generator while drawing.
        """
        return random.Random(_derive_seed(self.master_seed, name))

    @property
    def cached_names(self) -> Tuple[str, ...]:
        """Names of the streams :meth:`stream` has cached, sorted."""
        return tuple(sorted(self._streams))

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child family whose master seed is derived from *name*.

        Useful for replications: ``streams.spawn(f"rep{i}")`` gives each
        replication its own independent universe of named streams.
        """
        return RandomStreams(_derive_seed(self.master_seed, f"spawn:{name}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams seed={self.master_seed} streams={list(self.cached_names)}>"


class Distribution:
    """Base class for sampleable distribution descriptions."""

    def sample(self, rng: random.Random) -> float:
        """Draw one variate using the supplied generator."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        """Expected value of the distribution."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Distribution):
    """Degenerate distribution: always returns ``value``."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise SimulationError(f"Constant value must be >= 0, got {self.value}")

    def sample(self, rng: random.Random) -> float:
        return self.value

    @property
    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution parameterized by its *mean* (not rate)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise SimulationError(
                f"Exponential mean must be > 0, got {self.mean_value}"
            )

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_value)

    @property
    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise SimulationError(
                f"Uniform requires 0 <= low <= high, got [{self.low}, {self.high}]"
            )

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class UniformAround(Distribution):
    """Uniform on ``center ± center*relative_deviation``.

    This is the paper's disk-time specification: "disk service times are
    uniformly distributed on the range disk_time ± disk_time_dev" with the
    deviation given as a percentage of the mean.
    """

    center: float
    relative_deviation: float

    def __post_init__(self) -> None:
        if self.center <= 0:
            raise SimulationError(f"center must be > 0, got {self.center}")
        if not 0 <= self.relative_deviation <= 1:
            raise SimulationError(
                "relative_deviation must be in [0, 1], got "
                f"{self.relative_deviation}"
            )

    def sample(self, rng: random.Random) -> float:
        half_width = self.center * self.relative_deviation
        return rng.uniform(self.center - half_width, self.center + half_width)

    @property
    def mean(self) -> float:
        return self.center


@dataclass(frozen=True)
class Geometric(Distribution):
    """Geometric number of cycles with the given mean, support {1, 2, ...}.

    A discrete stand-in for "exponentially distributed number of reads":
    the paper draws ``num_reads`` from an exponential distribution; a query
    must read at least one page, so we also offer this discrete variant
    (used when ``integer_reads=True`` in the workload config).
    """

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value < 1:
            raise SimulationError(
                f"Geometric mean must be >= 1, got {self.mean_value}"
            )

    def sample(self, rng: random.Random) -> float:
        if self.mean_value == 1:
            return 1.0
        success = 1.0 / self.mean_value
        # Inverse-CDF sampling of the geometric distribution on {1, 2, ...}.
        u = rng.random()
        return float(1 + int(math.log(1.0 - u) / math.log(1.0 - success)))

    @property
    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class Discrete(Distribution):
    """Finite discrete distribution over ``values`` with ``weights``."""

    values: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights) or not self.values:
            raise SimulationError("values and weights must be equal-length, non-empty")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise SimulationError("weights must be non-negative with positive sum")

    def sample(self, rng: random.Random) -> float:
        return rng.choices(self.values, weights=self.weights, k=1)[0]

    @property
    def mean(self) -> float:
        total = sum(self.weights)
        return sum(v * w for v, w in zip(self.values, self.weights)) / total


def bernoulli(rng: random.Random, probability: float) -> bool:
    """Draw a Bernoulli variate: ``True`` with the given probability."""
    if not 0 <= probability <= 1:
        raise SimulationError(f"probability must be in [0,1], got {probability}")
    return rng.random() < probability


def choose_index(rng: random.Random, count: int) -> int:
    """Uniformly choose an index in ``range(count)``."""
    if count <= 0:
        raise SimulationError(f"count must be positive, got {count}")
    return rng.randrange(count)


__all__ = [
    "RandomStreams",
    "Distribution",
    "Constant",
    "Exponential",
    "Uniform",
    "UniformAround",
    "Geometric",
    "Discrete",
    "bernoulli",
    "choose_index",
]
