"""Exporter round-trip and format-validation tests."""

import json

import pytest

from repro.telemetry.events import QueryCreated, RunEnded, WarmupEnded
from repro.telemetry.exporters import (
    TIMELINE_FORMAT_VERSION,
    events_from_jsonl,
    events_to_jsonl,
    read_events_jsonl,
    read_timeline_csv,
    read_timeline_json,
    timeline_from_csv,
    timeline_from_json,
    timeline_to_csv,
    timeline_to_json,
    write_events_jsonl,
    write_timeline_csv,
    write_timeline_json,
)
from repro.telemetry.sampler import TIMELINE_FIELDS, TimelineSample

EVENTS = (
    QueryCreated(time=1.5, qid=1, class_name="io", home_site=0, estimated_reads=4.25),
    WarmupEnded(time=50.0),
    RunEnded(time=250.0, completions=9),
)

SAMPLES = (
    TimelineSample(
        time=50.0,
        site=0,
        cpu_queue=2,
        disk_queue=3,
        cpu_busy=0.0,
        disk_busy=0.0,
        cpu_utilization=0.0,
        disk_utilization=0.0,
        load_io=1,
        load_cpu=0,
        staleness=0.0,
    ),
    TimelineSample(
        time=100.0,
        site=0,
        cpu_queue=1,
        disk_queue=0,
        # Deliberately awkward floats: repr round-trips them bit-for-bit.
        cpu_busy=1.0 / 3.0,
        disk_busy=0.1 + 0.2,
        cpu_utilization=(1.0 / 3.0) / 50.0,
        disk_utilization=(0.1 + 0.2) / 100.0,
        load_io=0,
        load_cpu=1,
        staleness=12.75,
    ),
)


class TestEventsJsonl:
    def test_round_trip_is_exact(self):
        assert events_from_jsonl(events_to_jsonl(EVENTS)) == EVENTS

    def test_empty_stream_is_empty_string(self):
        assert events_to_jsonl(()) == ""
        assert events_from_jsonl("") == ()

    def test_canonical_lines(self):
        text = events_to_jsonl(EVENTS)
        lines = text.splitlines()
        assert len(lines) == 3
        assert text.endswith("\n")
        for line in lines:
            payload = json.loads(line)
            # Canonical form: sorted keys, no spaces.
            assert line == json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )

    def test_blank_lines_ignored(self):
        text = events_to_jsonl(EVENTS)
        padded = "\n" + text.replace("\n", "\n\n")
        assert events_from_jsonl(padded) == EVENTS

    def test_invalid_json_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            events_from_jsonl('{"event":"WarmupEnded","time":1.0}\n{oops\n')

    def test_non_object_line_rejected(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            events_from_jsonl("[1,2]\n")

    def test_file_round_trip(self, tmp_path):
        path = write_events_jsonl(EVENTS, tmp_path / "events.jsonl")
        assert read_events_jsonl(path) == EVENTS


class TestTimelineCsv:
    def test_round_trip_is_exact(self):
        assert timeline_from_csv(timeline_to_csv(SAMPLES)) == SAMPLES

    def test_header_is_field_order(self):
        first_line = timeline_to_csv(SAMPLES).splitlines()[0]
        assert first_line == ",".join(TIMELINE_FIELDS)

    def test_ints_stay_bare(self):
        row = timeline_to_csv(SAMPLES[:1]).splitlines()[1].split(",")
        site_cell = row[TIMELINE_FIELDS.index("site")]
        assert site_cell == "0"  # not "0.0"

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError, match="missing header"):
            timeline_from_csv("")

    def test_wrong_header_rejected(self):
        with pytest.raises(ValueError, match="unexpected timeline header"):
            timeline_from_csv("a,b,c\n")

    def test_short_row_rejected(self):
        text = ",".join(TIMELINE_FIELDS) + "\n1.0,2\n"
        with pytest.raises(ValueError, match="cells"):
            timeline_from_csv(text)

    def test_file_round_trip(self, tmp_path):
        path = write_timeline_csv(SAMPLES, tmp_path / "timeline.csv")
        assert read_timeline_csv(path) == SAMPLES


class TestTimelineJson:
    def test_round_trip_is_exact(self):
        assert timeline_from_json(timeline_to_json(SAMPLES)) == SAMPLES

    def test_envelope_carries_version_and_fields(self):
        data = json.loads(timeline_to_json(SAMPLES))
        assert data["format_version"] == TIMELINE_FORMAT_VERSION
        assert data["fields"] == list(TIMELINE_FIELDS)
        assert len(data["samples"]) == len(SAMPLES)

    def test_empty_timeline_is_a_complete_document(self):
        text = timeline_to_json(())
        assert text == (
            '{"fields":' + json.dumps(list(TIMELINE_FIELDS), separators=(",", ":"))
            + ',"format_version":1,"samples":[]}\n'
        )
        assert timeline_from_json(text) == ()

    def test_version_mismatch_rejected(self):
        data = json.loads(timeline_to_json(SAMPLES))
        data["format_version"] = 999
        with pytest.raises(ValueError, match="format_version"):
            timeline_from_json(json.dumps(data))

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            timeline_from_json("[1]")
        with pytest.raises(ValueError, match="samples"):
            timeline_from_json('{"format_version":1}')

    def test_file_round_trip(self, tmp_path):
        path = write_timeline_json(SAMPLES, tmp_path / "timeline.json")
        assert read_timeline_json(path) == SAMPLES

    def test_csv_and_json_agree(self):
        via_csv = timeline_from_csv(timeline_to_csv(SAMPLES))
        via_json = timeline_from_json(timeline_to_json(SAMPLES))
        assert via_csv == via_json
