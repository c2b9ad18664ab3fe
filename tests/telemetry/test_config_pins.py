"""Pins for every combination of the session's collection switches.

The scenario of ``test_export_pins.py`` (LERT, seed 5, faulted, 50 +
1,200 time units, timeline every 40) runs under each of the eight
``TelemetryConfig(events, spans, decisions)`` combinations.  For each,
two things are pinned:

* ``bus.emitted``: how many events the model constructed, which is
  decided by what the session subscribed to (the opt-in
  ``ServiceFinished`` and ``AllocationDecided`` are only emitted when
  spans or decisions are on);
* the sha256 of the canonical results record, which carries the
  telemetry summary (``events.<Type>`` counters, site and query
  statistics), the ``SpanSummary`` and the ``DecisionSummary``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.model.serialization import results_to_dict
from repro.model.system import DistributedDatabase
from repro.policies import make_policy
from repro.runner import RunSpec, execute
from repro.telemetry.session import TelemetryConfig
from tests.golden.corpus import canonical_json, golden_config, golden_fault_plan

#: (events, spans, decisions) -> (bus.emitted, results sha256)
PINS = {
    (False, False, False): (
        2,
        "8809e067a6db9d7f2b4e5d3ea1c04f17abdb9c27c03325220c7c82dbda7043dd",
    ),
    (False, False, True): (
        256,
        "e9aa336a4fd93b57afbf84aa07d368a36e6c452934f3ad82373559a256cdb99f",
    ),
    (False, True, False): (
        1362,
        "816326222662db91eba1dbb064658a981856dff39d5c4adadcf94cf02dd14648",
    ),
    (False, True, True): (
        1616,
        "dd4b8e732bcece973becaf37f87c65e5d7002cdba30424e20d3223b1553cba87",
    ),
    (True, False, False): (
        1619,
        "909ae235b9a8792424e5969a338615fd741af064db3f475590a3738c21773d9e",
    ),
    (True, False, True): (
        1873,
        "46680c5908292bc98852e3a658f774890c85a3b687907670c8d364e96f1fd8e6",
    ),
    (True, True, False): (
        1872,
        "24e9976caa5cf219c3aaa8eab898eede22371bf860e2abe30196cfb5c720bf2b",
    ),
    (True, True, True): (
        2126,
        "9538acddbd2af1cf16e20d05575e11b35c41cbd39102b56b2d77d4fd96e71973",
    ),
}


@pytest.mark.parametrize(
    "events,spans,decisions",
    sorted(PINS),
    ids=lambda flag: "on" if flag else "off",
)
def test_emitted_and_results_are_pinned(events, spans, decisions):
    spec = RunSpec(
        warmup=50.0,
        duration=1200.0,
        seed=5,
        telemetry=TelemetryConfig(
            events=events,
            sample_interval=40.0,
            spans=spans,
            decisions=decisions,
        ),
        faults=golden_fault_plan(),
    )
    system = DistributedDatabase(golden_config(), make_policy("LERT"), seed=5)
    report = execute(system, spec)
    record = canonical_json(results_to_dict(report.results))
    digest = hashlib.sha256(record.encode("utf-8")).hexdigest()
    assert (system.sim.bus.emitted, digest) == PINS[(events, spans, decisions)]
