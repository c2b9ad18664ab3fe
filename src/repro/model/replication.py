"""Data placement for partial replication (the paper's second §6.2 item).

§6.2: "we intend to address the general problem of dynamically allocating
subqueries of distributed queries to sites in an environment with only
partially replicated data".  With a :class:`ReplicationMap` passed as
``Mechanisms(replication=...)`` each query references one *data
item*, each item is held by some of the ``S`` sites, and the allocator
may only choose among the holders.  Every policy works unchanged — the
candidate-site set simply shrinks from "all sites" to "sites holding a
copy".

The map is static for a run (data placement changes on a much slower
timescale than query allocation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class ReplicationMap:
    """Static placement of data items onto sites.

    Attributes:
        num_sites: Total sites in the system.
        placement: ``placement[item]`` is the tuple of sites holding a copy
            of that item.
    """

    num_sites: int
    placement: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.placement:
            raise ValueError("need at least one data item")
        for item, holders in enumerate(self.placement):
            if not holders:
                raise ValueError(f"data item {item} has no copies")
            if len(set(holders)) != len(holders):
                raise ValueError(f"data item {item} lists duplicate holders")
            if any(not 0 <= s < self.num_sites for s in holders):
                raise ValueError(f"data item {item} placed on invalid site")

    @property
    def num_items(self) -> int:
        return len(self.placement)

    def holders(self, item: int) -> Tuple[int, ...]:
        return self.placement[item]

    @property
    def mean_copies(self) -> float:
        return sum(len(h) for h in self.placement) / self.num_items

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, num_sites: int, num_items: int = 1) -> "ReplicationMap":
        """Every item everywhere — degenerates to the base model."""
        everywhere = tuple(range(num_sites))
        return cls(num_sites, tuple(everywhere for _ in range(num_items)))

    @classmethod
    def random_k(
        cls,
        num_sites: int,
        num_items: int,
        copies: int,
        seed: int = 0,
    ) -> "ReplicationMap":
        """Each item on ``copies`` sites chosen uniformly at random."""
        if not 1 <= copies <= num_sites:
            raise ValueError(f"copies must be in [1, {num_sites}], got {copies}")
        # Placement happens before the simulation starts and is a pure
        # function of the explicit seed argument — it never touches the
        # run's stream registry, so replay cannot be perturbed by it.
        rng = random.Random(seed)  # reprolint: disable=RL014
        placement = tuple(
            tuple(sorted(rng.sample(range(num_sites), copies)))
            for _ in range(num_items)
        )
        return cls(num_sites, placement)

    @classmethod
    def round_robin_k(
        cls, num_sites: int, num_items: int, copies: int
    ) -> "ReplicationMap":
        """Item ``i`` on sites ``i, i+1, ..., i+copies-1`` (mod S).

        A balanced deterministic placement: every site holds the same
        number of items.
        """
        if not 1 <= copies <= num_sites:
            raise ValueError(f"copies must be in [1, {num_sites}], got {copies}")
        placement = tuple(
            tuple(sorted((item + offset) % num_sites for offset in range(copies)))
            for item in range(num_items)
        )
        return cls(num_sites, placement)


def item_cdf(weights: Sequence[float], num_items: int) -> Tuple[float, ...]:
    """Cumulative access distribution of per-item *weights* (last entry 1.0)."""
    if len(weights) != num_items:
        raise ValueError("item_weights must match the number of items")
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError("item_weights must be non-negative, positive sum")
    total = float(sum(weights))
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return tuple(cumulative)


__all__ = ["ReplicationMap", "item_cdf"]
