"""Byte pins for every path that runs a site visit's read cycles.

A site visit alternates FCFS disk reads and PS CPU bursts.  Each
scenario below drives that loop through one mechanism that splits,
moves, repeats or aborts visits, and pins three values of one short run:

* the runtime sanitizer's trace digest (every random draw and every
  fired event, in order, with its time, priority, sequence and label);
* ``sim.events_fired``;
* the sha256 of the canonical JSON of the run's results.

The results sha256 is the contract: a change to how read cycles are
scheduled must keep it.  The trace digest and ``events_fired`` pin the
kernel's event order; a change that moves them on purpose (10.0.0
serves the next burst inside the completion; 12.0.0 draws through
``random``/``getrandbits`` instead of ``expovariate``/``randrange``,
which the sanitizer records by method name) re-records them, and only
them, on its own.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments.cache import canonical_json
from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.config import DISK_SHARED, paper_defaults
from repro.model.mechanisms import Mechanisms
from repro.model.replication import ReplicationMap
from repro.model.serialization import results_to_dict
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.sanitize import capture_trace

CONFIG = paper_defaults(num_sites=3, mpl=5)
REPLICATION = ReplicationMap.round_robin_k(3, num_items=6, copies=2)

#: scenario -> (config, constructor keywords, the counter the run must move)
SCENARIOS = {
    "migration": (
        CONFIG,
        {"mechanisms": Mechanisms(max_migrations=3, check_interval=2, threshold=1.1)},
        lambda system: system.total_migrations,
    ),
    "pipelines": (
        CONFIG,
        {"mechanisms": Mechanisms(replication=REPLICATION, multi_prob=0.5)},
        lambda system: system.distributed_queries,
    ),
    "updates": (
        CONFIG,
        {"mechanisms": Mechanisms(update_prob=0.3)},
        lambda system: system.applies_completed,
    ),
    "speeds": (
        CONFIG,
        {"mechanisms": Mechanisms(cpu_speed_factors=(2.0, 1.0, 0.5))},
        lambda system: system.metrics.completions,
    ),
    "shared_disks": (
        dataclasses.replace(CONFIG, disk_organization=DISK_SHARED),
        {},
        lambda system: system.metrics.completions,
    ),
    "one_disk": (
        CONFIG.with_site(num_disks=1),
        {},
        lambda system: system.metrics.completions,
    ),
    "outage": (
        CONFIG,
        {
            "faults": FaultPlan(
                site_outages=(SiteOutage(site=1, at=150.0, duration=80.0),)
            )
        },
        lambda system: system.fault_injector.queries_aborted,
    ),
}

#: scenario -> (trace digest, trace records, events fired, results sha256)
PINS = {
    "migration": (
        "75e9a92cf6d92e9fafe182e5d06d72b0",
        8995,
        3330,
        "612c8beafa3628bfc662aca0b454c126"
        "208e6f03e93b7cabe837ed6f98818f97",
    ),
    "pipelines": (
        "ef9e084eef064fbe2e25bce56e8eeddc",
        8927,
        3071,
        "9680cf1bb398fd8e092629128e2ecbca"
        "1c040c95c35a67d44b863dde08b20636",
    ),
    "updates": (
        "fc8111036f674ed95287a8a11384cb4a",
        10004,
        3473,
        "a73c09d1c9166b2d687d4ab7068fbffc"
        "172d659927b7392a26dd5a913df0db97",
    ),
    "speeds": (
        "1e2ef469382ef672f59377067524136f",
        8642,
        2945,
        "2d39392059a8ffc88a8ce76b57ecfe71"
        "0a25a3962115f156c60b64e91361a98b",
    ),
    "shared_disks": (
        "f7f0af57d72c373903fb5c165604b6d2",
        5903,
        2930,
        "c6997b83a40445f5694a738760cb148a"
        "051e67a2d666d3b31df4c99ecf341e80",
    ),
    "one_disk": (
        "c7a9e105f46502ec0e085f094cfa5492",
        5815,
        2882,
        "cee0da8432f9bbe6063ba87b105d755a"
        "12203e05caba9abaedf4ff876b9c1367",
    ),
    "outage": (
        "f6bbe6b9028bb07bf4427c30deb3cb69",
        8687,
        2969,
        "b27d3e0514608052e44e4101e5b0a216"
        "620e0126b1ec47fc953e0b6b234b1b55",
    ),
}


def observe(name):
    config, kwargs, moved = SCENARIOS[name]
    with capture_trace() as trace:
        system = DistributedDatabase(config, make_policy("LERT"), seed=7, **kwargs)
        results = system.run(50.0, 1500.0)
    assert moved(system) > 0, f"{name}: the scenario missed its mechanism"
    payload = canonical_json(results_to_dict(results)).encode("utf-8")
    return (
        trace.hexdigest(),
        trace.count,
        system.sim.events_fired,
        hashlib.sha256(payload).hexdigest(),
    )


def test_every_scenario_is_pinned():
    assert set(PINS) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_read_cycle_pin(name):
    assert observe(name) == PINS[name]
