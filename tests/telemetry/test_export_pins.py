"""Byte pins for every file a :class:`RunReport` exports.

One fixed traced run (events, timeline, spans and decisions all on,
with faults) is exported through each ``RunReport.write_*`` method.  Two
things are checked per file: its sha256 against a recorded digest, and
that the file's text equals the matching string function's output, so
the file writers and the string exporters cannot drift apart.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.runner import RunSpec, run
from repro.telemetry.exporters import (
    events_to_jsonl,
    timeline_to_csv,
    timeline_to_json,
)
from repro.telemetry.session import TelemetryConfig
from repro.telemetry.tracing import decisions_to_jsonl, spans_to_chrome_json
from tests.golden.corpus import golden_config, golden_fault_plan

SPEC = RunSpec(
    warmup=50.0,
    duration=1200.0,
    seed=5,
    telemetry=TelemetryConfig(
        events=True, sample_interval=40.0, spans=True, decisions=True
    ),
    faults=golden_fault_plan(),
)

#: sha256 of each exported file, keyed by file name.
PINNED_SHA256 = {
    "spans.json": (
        "cea7e078ee117af6f039919d52e79328"
        "46d49c8ec79be53e91fa7a4f87c11033"
    ),
    "decisions.jsonl": (
        "4837b46c00431ffafae29c170fd7e1dd"
        "7bdc3663c9a775a1e12b129d2a12ac6e"
    ),
    "events.jsonl": (
        "0ec455f5a26c1bd44726164283bd9071"
        "72e93d678f58d7ba3c392b7b014979d2"
    ),
    "timeline.csv": (
        "e1ffc0a382643a007fa62b942df0dc07"
        "ab36265b558f6df5c1c697bd8834fdaf"
    ),
    "timeline.json": (
        "092ecf11b1511c36aa56e1c6e236f60f"
        "8198e0386bc97418de0bb34143e51b45"
    ),
}


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Run the scenario once; return (report, {file name: file bytes})."""
    report = run(golden_config(), "LERT", SPEC)
    out = tmp_path_factory.mktemp("exports")
    report.write_spans(out / "spans.json")
    report.write_decisions(out / "decisions.jsonl")
    report.write_events(out / "events.jsonl")
    report.write_timeline(out / "timeline.csv", fmt="csv")
    report.write_timeline(out / "timeline.json", fmt="json")
    files = {name: (out / name).read_bytes() for name in PINNED_SHA256}
    return report, files


def test_every_export_is_non_trivial(exported):
    report, _ = exported
    assert report.spans and report.decisions and report.events
    assert report.timeline


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_export_bytes_are_pinned(exported, name):
    _, files = exported
    assert hashlib.sha256(files[name]).hexdigest() == PINNED_SHA256[name]


def test_files_equal_the_string_exporters(exported):
    report, files = exported
    expected = {
        "spans.json": spans_to_chrome_json(report.spans),
        "decisions.jsonl": decisions_to_jsonl(report.decisions),
        "events.jsonl": events_to_jsonl(report.events),
        "timeline.csv": timeline_to_csv(report.timeline),
        "timeline.json": timeline_to_json(report.timeline),
    }
    for name, text in expected.items():
        assert files[name] == text.encode("utf-8"), name
