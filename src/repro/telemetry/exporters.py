"""Exporters: canonical JSONL for events, CSV/JSON for timelines.

Two properties drive the formats:

* **Byte-identical determinism.**  JSON is serialized canonically
  (sorted keys, no whitespace), floats are written with :func:`repr`
  (shortest round-trip representation), and newlines are always ``"\\n"``
  — so two runs with the same seed produce byte-identical files, the
  property the determinism regression test pins.
* **Exact round-trips.**  Reading a file back reconstructs the original
  typed objects exactly (types coerced per dataclass annotation, floats
  recovered bit-for-bit from ``repr``), so exported telemetry is a
  faithful archive, not a lossy report.

The helpers come in pure (``*_to_*`` / ``*_from_*`` on strings) and
file (``write_*`` / ``read_*``) flavours.  Each format has one chunk
generator that both flavours are built from: the string function joins
its chunks, the writer streams them to the file one record at a time, so
a file is byte-identical to the string and an export never holds the
whole document in memory.  Files are written in text mode with
``newline=""`` so exports are platform-independent; the JSONL and CSV
readers iterate over a file's lines rather than reading it whole.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.telemetry.events import TelemetryEvent, event_from_dict, event_to_dict
from repro.telemetry.sampler import (
    TIMELINE_FIELDS,
    CellValue,
    TimelineSample,
    sample_from_dict,
    sample_to_dict,
)

#: Version tag embedded in the JSON timeline envelope.
TIMELINE_FORMAT_VERSION = 1

#: Anything accepted as a filesystem destination.
PathLike = Union[str, Path]


#: Canonical JSON: sorted keys, minimal separators, no NaN.  Shared by
#: every telemetry and tracing exporter.
CANONICAL_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def write_chunks(chunks: Iterable[str], path: PathLike) -> Path:
    """Stream *chunks* to *path* as UTF-8 text; returns the path.

    ``newline=""`` writes every ``"\\n"`` as is, on every platform.
    """
    destination = Path(path)
    with open(destination, "w", encoding="utf-8", newline="") as stream:
        stream.writelines(chunks)
    return destination


# ----------------------------------------------------------------------
# Event log (JSONL)
# ----------------------------------------------------------------------
def _events_jsonl_chunks(events: Iterable[TelemetryEvent]) -> Iterator[str]:
    for event in events:
        yield CANONICAL_JSON.encode(dict(event_to_dict(event))) + "\n"


def events_to_jsonl(events: Iterable[TelemetryEvent]) -> str:
    """Serialize *events* as canonical JSON Lines (one event per line).

    Returns the empty string for an empty stream; otherwise every line —
    including the last — is terminated by ``"\\n"``.
    """
    return "".join(_events_jsonl_chunks(events))


def _events_from_lines(lines: Iterable[str]) -> Tuple[TelemetryEvent, ...]:
    events: List[TelemetryEvent] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"line {lineno}: expected a JSON object")
        events.append(event_from_dict(data))
    return tuple(events)


def events_from_jsonl(text: str) -> Tuple[TelemetryEvent, ...]:
    """Parse a JSONL event log back into typed events.

    Blank lines are ignored; anything else must be a valid event record.
    """
    return _events_from_lines(text.splitlines())


def write_events_jsonl(
    events: Iterable[TelemetryEvent], path: PathLike
) -> Path:
    """Write *events* to *path* as JSONL; returns the resolved path."""
    return write_chunks(_events_jsonl_chunks(events), path)


def read_events_jsonl(path: PathLike) -> Tuple[TelemetryEvent, ...]:
    """Read a JSONL event log written by :func:`write_events_jsonl`."""
    with open(path, "r", encoding="utf-8") as stream:
        return _events_from_lines(stream)


# ----------------------------------------------------------------------
# Timeline (CSV)
# ----------------------------------------------------------------------
def _cell_to_text(value: CellValue) -> str:
    """Render one cell: ints bare, floats via shortest-round-trip repr."""
    if isinstance(value, bool):  # pragma: no cover - no bool fields today
        raise TypeError("timeline cells must be int or float")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Echo:
    """A file-like sink whose ``write`` returns its argument, so
    ``csv.writer(_Echo()).writerow(cells)`` returns the formatted line."""

    def write(self, text: str) -> str:
        return text


def _timeline_csv_chunks(samples: Iterable[TimelineSample]) -> Iterator[str]:
    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(TIMELINE_FIELDS)
    for sample in samples:
        record = sample_to_dict(sample)
        yield writer.writerow(
            [_cell_to_text(record[name]) for name in TIMELINE_FIELDS]
        )


def timeline_to_csv(samples: Iterable[TimelineSample]) -> str:
    """Serialize *samples* as CSV with a fixed header row.

    The column order is :data:`TIMELINE_FIELDS`; floats use ``repr`` so
    :func:`timeline_from_csv` restores them bit-for-bit.
    """
    return "".join(_timeline_csv_chunks(samples))


def _timeline_from_rows(reader: Iterator[List[str]]) -> Tuple[TimelineSample, ...]:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("timeline CSV is empty (missing header)") from None
    if tuple(header) != TIMELINE_FIELDS:
        raise ValueError(
            f"unexpected timeline header {header!r}; expected {list(TIMELINE_FIELDS)}"
        )
    samples: List[TimelineSample] = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(TIMELINE_FIELDS):
            raise ValueError(
                f"timeline row has {len(row)} cells, expected {len(TIMELINE_FIELDS)}"
            )
        record: Dict[str, CellValue] = {
            name: float(cell) for name, cell in zip(TIMELINE_FIELDS, row)
        }
        samples.append(sample_from_dict(record))
    return tuple(samples)


def timeline_from_csv(text: str) -> Tuple[TimelineSample, ...]:
    """Parse CSV produced by :func:`timeline_to_csv` back into samples."""
    return _timeline_from_rows(csv.reader(io.StringIO(text)))


def write_timeline_csv(
    samples: Iterable[TimelineSample], path: PathLike
) -> Path:
    """Write *samples* to *path* as CSV; returns the resolved path."""
    return write_chunks(_timeline_csv_chunks(samples), path)


def read_timeline_csv(path: PathLike) -> Tuple[TimelineSample, ...]:
    """Read a CSV timeline written by :func:`write_timeline_csv`."""
    with open(path, "r", encoding="utf-8", newline="") as stream:
        return _timeline_from_rows(csv.reader(stream))


# ----------------------------------------------------------------------
# Timeline (JSON envelope)
# ----------------------------------------------------------------------
def _timeline_json_chunks(samples: Iterable[TimelineSample]) -> Iterator[str]:
    # The envelope minus its rows, then one row per chunk.  "samples" is
    # the last key in sorted order, so the rows close the document.
    envelope = CANONICAL_JSON.encode(
        {"format_version": TIMELINE_FORMAT_VERSION, "fields": list(TIMELINE_FIELDS)}
    )
    yield envelope[:-1] + ',"samples":['
    separator = ""
    for sample in samples:
        yield separator + CANONICAL_JSON.encode(dict(sample_to_dict(sample)))
        separator = ","
    yield "]}\n"


def timeline_to_json(samples: Iterable[TimelineSample]) -> str:
    """Serialize *samples* as one canonical JSON document.

    The envelope carries a ``format_version`` and the column order so
    readers can validate compatibility before touching the rows.
    """
    return "".join(_timeline_json_chunks(samples))


def timeline_from_json(text: str) -> Tuple[TimelineSample, ...]:
    """Parse a JSON timeline produced by :func:`timeline_to_json`."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("timeline JSON must be an object")
    version = data.get("format_version")
    if version != TIMELINE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported timeline format_version {version!r} "
            f"(expected {TIMELINE_FORMAT_VERSION})"
        )
    rows = data.get("samples")
    if not isinstance(rows, list):
        raise ValueError("timeline JSON is missing its 'samples' list")
    samples: List[TimelineSample] = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError("each timeline sample must be a JSON object")
        samples.append(sample_from_dict(row))
    return tuple(samples)


def write_timeline_json(
    samples: Iterable[TimelineSample], path: PathLike
) -> Path:
    """Write *samples* to *path* as JSON; returns the resolved path."""
    return write_chunks(_timeline_json_chunks(samples), path)


def read_timeline_json(path: PathLike) -> Tuple[TimelineSample, ...]:
    """Read a JSON timeline written by :func:`write_timeline_json`."""
    return timeline_from_json(Path(path).read_text(encoding="utf-8"))


__all__ = [
    "TIMELINE_FORMAT_VERSION",
    "PathLike",
    "CANONICAL_JSON",
    "write_chunks",
    "events_to_jsonl",
    "events_from_jsonl",
    "write_events_jsonl",
    "read_events_jsonl",
    "timeline_to_csv",
    "timeline_from_csv",
    "write_timeline_csv",
    "read_timeline_csv",
    "timeline_to_json",
    "timeline_from_json",
    "write_timeline_json",
    "read_timeline_json",
]
