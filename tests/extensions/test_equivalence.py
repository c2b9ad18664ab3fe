"""Equivalence pins: every extension mechanism reproduces its recorded runs.

Each case builds one system with one mechanism switched on, runs it, and
compares sha256 digests of its canonical results (a telemetry-free run,
as the result cache stores it) and, where pinned, of its catch-all
telemetry event stream (a second run with the event log on).  The pins
were recorded before the mechanisms were folded into one system class,
so a digest that moves means a mechanism no longer behaves as it did.

The migration and subquery-pipeline event-stream pins are taken with the
``QueryAllocated``, ``QueryTransferred`` and ``ServiceStarted`` events
removed: those three are the life-cycle events the pinned runs did not
emit, and every other event must stay byte-identical.
"""

import hashlib
import json

import pytest

from repro.model.config import paper_defaults
from repro.model.mechanisms import Mechanisms
from repro.model.replication import ReplicationMap
from repro.model.serialization import results_to_dict
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, execute
from repro.telemetry.events import QueryAllocated, QueryTransferred, ServiceStarted
from repro.telemetry.exporters import events_to_jsonl
from repro.telemetry.session import TelemetryConfig

CONFIG = paper_defaults(num_sites=3, mpl=10, think_time=100.0)
SEED = 21
WARMUP = 100.0
DURATION = 1500.0

SPEEDS = (2.0, 1.0, 0.5)
REPLICATION = ReplicationMap.round_robin_k(3, num_items=6, copies=2)
ITEM_WEIGHTS = (3.0, 1.0, 1.0, 2.0, 0.5, 0.5)


def _stale(policy):
    return DistributedDatabase(
        CONFIG,
        policy,
        seed=SEED,
        mechanisms=Mechanisms(refresh_interval=25.0, broadcast_cost=0.5),
    )


def _updates(probability):
    def build(policy):
        return DistributedDatabase(
            CONFIG, policy, seed=SEED, mechanisms=Mechanisms(update_prob=probability)
        )

    return build


def _heterogeneous(policy):
    return DistributedDatabase(
        CONFIG, policy, seed=SEED, mechanisms=Mechanisms(cpu_speed_factors=SPEEDS)
    )


def _partial(policy):
    return DistributedDatabase(
        CONFIG,
        policy,
        seed=SEED,
        mechanisms=Mechanisms(replication=REPLICATION, item_weights=ITEM_WEIGHTS),
    )


def _subqueries(policy):
    return DistributedDatabase(
        CONFIG,
        policy,
        seed=SEED,
        mechanisms=Mechanisms(replication=REPLICATION, multi_prob=0.5),
    )


def _migration(policy):
    return DistributedDatabase(
        CONFIG,
        policy,
        seed=SEED,
        mechanisms=Mechanisms(threshold=1.1, check_interval=5, max_migrations=2),
    )


#: name -> (builder, policy, results sha256, events sha256 or None)
CASES = {
    "stale-lert": (
        _stale,
        "LERT",
        "3ea5e0d2f919b53a119297b02d4ef56a5d5cd1ffcab08d4299142e98e956957f",
        "ef9819a0d7fa35caa2a8203a2ded512463a9b68545d12d621b08ce470ed42cea",
    ),
    "updates-lert-0.2": (
        _updates(0.2),
        "LERT",
        "ddfd880b76df63219508ed3d82a1b734237a1033f3a86904163276e06bea8fb9",
        "b843077e9ef5a363b4da31e9134426e715fc04d94ced0105cdf8b150c68ba83d",
    ),
    "updates-local-0.0": (
        _updates(0.0),
        "LOCAL",
        "2c666081658fdc6e207ebb80a9e15ad5cb1c7a8a63d4d0ff704a21c17bc7351c",
        "8ffcff719034897c6a04c214190b5e288504a395bfe58684e4258898d094ca47",
    ),
    "heterogeneous-lert": (
        _heterogeneous,
        "LERT",
        "684197469ba3541afd718cc58c1d26564cadbad4c4b7074bacf5837122406a87",
        None,
    ),
    "heterogeneous-lert-het": (
        _heterogeneous,
        "LERT-HET",
        "5a928798dc42c8508ee65fde9f4c4cbbc9c108e316a8094e30ddf4e329bdfae8",
        None,
    ),
    "partial-lert": (
        _partial,
        "LERT",
        "af28ffd5a448f06b81678fd2677a8aeaa4304417e4f52c80a7bf72d51674a987",
        "c173ae954375a4845015b601ac9e7693f9322d5d60cf38704ed73751e6bac7a6",
    ),
    "subqueries-lert": (
        _subqueries,
        "LERT",
        "b75ad8b76a62c6c72f7bdc2da1c76003f59e27a9a7415e1aaca417a5637a6323",
        None,
    ),
    "migration-lert": (
        _migration,
        "LERT",
        "a7d6c8cf7e1ab320fb9ae0ff4a5e21f28940470d6846fe0318e8a7ab80df9aa6",
        None,
    ),
}

#: Life-cycle events left out of the filtered event-stream pins.
UNPINNED_EVENTS = (QueryAllocated, QueryTransferred, ServiceStarted)

#: name -> events sha256 with :data:`UNPINNED_EVENTS` removed
FILTERED_EVENT_PINS = {
    "migration-lert": "232fa1ee0ec4fd686a618f89662c830f48174afda12842c0e0ffe4040d6971df",
    "subqueries-lert": "22495acca19619c84a8ef3a1fa643b86e2fd435730df046d0a9c3d03af776ecf",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def results_digest(build, policy):
    system = build(make_policy(policy))
    results = system.run(WARMUP, DURATION)
    return _sha256(
        json.dumps(results_to_dict(results), sort_keys=True, separators=(",", ":"))
    )


def events_digest(build, policy, leave_out=()):
    spec = RunSpec(
        warmup=WARMUP,
        duration=DURATION,
        seed=SEED,
        telemetry=TelemetryConfig(events=True),
    )
    report = execute(build(make_policy(policy)), spec)
    events = [event for event in report.events if not isinstance(event, leave_out)]
    return _sha256(events_to_jsonl(events))


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_match_pin(name):
    build, policy, pin, _ = CASES[name]
    assert results_digest(build, policy) == pin


@pytest.mark.parametrize(
    "name", sorted(name for name, case in CASES.items() if case[3] is not None)
)
def test_event_stream_matches_pin(name):
    build, policy, _, pin = CASES[name]
    assert events_digest(build, policy) == pin



@pytest.mark.parametrize("name", sorted(FILTERED_EVENT_PINS))
def test_filtered_event_stream_matches_pin(name):
    build, policy, _, _ = CASES[name]
    digest = events_digest(build, policy, leave_out=UNPINNED_EVENTS)
    assert digest == FILTERED_EVENT_PINS[name]
