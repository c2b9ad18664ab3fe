"""A run's stream registry does not grow with run length.

Every query (and every update apply) draws from its own named stream,
fetched with :meth:`RandomStreams.once`, which the registry does not
keep.  Only the long-lived activity streams stay cached, so the cached
set — and the memory it holds — is the same for a short and a long run.
"""

from __future__ import annotations

import pytest

from repro.model.config import paper_defaults
from repro.model.mechanisms import Mechanisms
from repro.model.system import DistributedDatabase
from repro.policies import make_policy
from repro.workloads import PoissonOpen, WorkloadSpec

ONE_SHOT_PREFIXES = ("query.", "apply.")


def _cached_names(duration: float, **system_kwargs):
    system = DistributedDatabase(
        paper_defaults(), make_policy("LERT"), seed=3, **system_kwargs
    )
    system.run(50.0, duration)
    return system.sim.rng.cached_names


@pytest.mark.parametrize(
    "system_kwargs",
    [
        {},
        {"mechanisms": Mechanisms(update_prob=0.2)},
        {"workload": WorkloadSpec(arrivals=PoissonOpen(rate=0.1))},
    ],
    ids=["closed", "updates", "open"],
)
def test_longer_run_caches_the_same_streams(system_kwargs):
    short = _cached_names(250.0, **system_kwargs)
    long = _cached_names(1000.0, **system_kwargs)
    assert len(long) == len(short)
    assert not [name for name in long if name.startswith(ONE_SHOT_PREFIXES)]
