"""Name-based policy registry.

Experiments and the CLI refer to policies by the paper's names ("LOCAL",
"BNQ", "BNQRD", "LERT", ...).  The registry maps names to constructors so a
fresh, unbound policy instance is produced per run.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.policies.base import AllocationPolicy
from repro.policies.bnq import BNQPolicy
from repro.policies.bnqrd import BNQRDPolicy
from repro.policies.lert import LERTPolicy
from repro.policies.local import LocalPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.threshold import PowerOfDPolicy, ThresholdPolicy

_REGISTRY: Dict[str, Callable[[], AllocationPolicy]] = {}


def register(name: str, factory: Callable[[], AllocationPolicy]) -> None:
    """Add (or replace) a policy constructor under *name*."""
    _REGISTRY[name.upper()] = factory


def make_policy(name: str) -> AllocationPolicy:
    """Instantiate a fresh policy by (case-insensitive) name."""
    try:
        factory = _REGISTRY[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None
    return factory()


def available_policies() -> List[str]:
    """Sorted list of registered policy names."""
    return sorted(_REGISTRY)


register("LOCAL", LocalPolicy)
register("RANDOM", RandomPolicy)
register("BNQ", BNQPolicy)
register("THRESHOLD", ThresholdPolicy)
register("SQ2", PowerOfDPolicy)
register("BNQRD", BNQRDPolicy)
register("LERT", LERTPolicy)

# LERT-MVA is registered lazily so users who never touch the extension
# never import the queueing stack.


def _lert_mva() -> AllocationPolicy:
    from repro.policies.lert_mva import LERTMVAPolicy

    return LERTMVAPolicy()


register("LERT-MVA", _lert_mva)


__all__ = ["register", "make_policy", "available_policies"]
