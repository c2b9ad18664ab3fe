"""Named random-number streams.

Reproducible stochastic simulation needs *independent, named* random streams:
one stream per stochastic activity (think times, CPU demands, disk times,
routing choices, ...) so that changing how often one activity draws numbers
does not perturb any other activity.  This is the classic
common-random-numbers discipline used for variance reduction when comparing
policies: two runs with the same seed but different allocation policies see
identical workloads.

:class:`RandomStreams` derives each named stream deterministically from a
master seed, so ``RandomStreams(7).stream("think")`` is the same sequence in
every run of every process.  The model draws its variates from these
streams directly (``rng.expovariate``, ``rng.uniform``, ...): the workload
parameters in :mod:`repro.model.config` are plain numbers.
"""

from __future__ import annotations

import hashlib
import random
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStreams seed={self.master_seed} streams={list(self.cached_names)}>"


def bernoulli(rng: random.Random, probability: float) -> bool:
    """Draw a Bernoulli variate: ``True`` with the given probability."""
    if not 0 <= probability <= 1:
        raise SimulationError(f"probability must be in [0,1], got {probability}")
    return rng.random() < probability


__all__ = ["RandomStreams", "bernoulli"]
