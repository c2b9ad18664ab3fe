"""Dynamic query-allocation policies (the paper's §4 plus extensions).

* :class:`LocalPolicy` — always run at the arrival site (baseline).
* :class:`RandomPolicy` — uniform random site (no-information control).
* :class:`BNQPolicy` — balance the number of queries (§4.1).
* :class:`BNQRDPolicy` — balance counts by resource-demand class (§4.2).
* :class:`LERTPolicy` — least estimated response time (§4.3).
* :class:`LERTMVAPolicy` — LERT with an MVA response-time model (ablation).

Use :func:`make_policy` to construct policies by name.
"""

from repro.policies.base import AllocationPolicy, CostBasedPolicy
from repro.policies.bnq import BNQPolicy
from repro.policies.bnqrd import BNQRDPolicy
from repro.policies.lert import LERTPolicy
from repro.policies.local import LocalPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.registry import available_policies, make_policy, register
from repro.policies.threshold import PowerOfDPolicy, ThresholdPolicy

__all__ = [
    "AllocationPolicy",
    "CostBasedPolicy",
    "LocalPolicy",
    "RandomPolicy",
    "BNQPolicy",
    "BNQRDPolicy",
    "LERTPolicy",
    "ThresholdPolicy",
    "PowerOfDPolicy",
    "available_policies",
    "make_policy",
    "register",
]
