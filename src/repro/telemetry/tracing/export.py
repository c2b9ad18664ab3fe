"""Byte-deterministic exporters for spans and decision records.

Two formats, both canonical (sorted keys, compact separators, ``repr``
floats, ``"\\n"`` newlines, trailing newline) so identical runs produce
identical bytes — the property the serial-vs-``--jobs N`` replay tests
and the committed golden digests pin:

* **Chrome trace-event JSON** for spans (:func:`spans_to_chrome_json`)
  — loadable directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  One complete (``"ph": "X"``) event per span:
  ``pid`` 1, ``tid`` the site, ``ts``/``dur`` in simulated time units
  (``displayTimeUnit`` maps them to ms in the viewer).  The full span
  record (:func:`repro.codec.to_dict`) rides in ``args`` so the export
  round-trips exactly.
* **JSONL** for decision records (:func:`decisions_to_jsonl`) — one
  canonical JSON object per line, mirroring the event-stream JSONL
  format of :mod:`repro.telemetry.exporters`.

As in :mod:`repro.telemetry.exporters`, each format has one chunk
generator: the string function joins it and the writer streams it to
the file, so files equal strings byte for byte and an export holds one
record at a time.  The readers decode as they go — the decision reader
iterates over the file's lines, and the trace reader builds each
:class:`Span` as its trace event is decoded.

Neither format participates in experiment cache keys: traces are
observability artifacts, not results.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Tuple

from repro.codec import from_dict, to_dict
from repro.telemetry.exporters import CANONICAL_JSON, PathLike, write_chunks
from repro.telemetry.tracing.decisions import DecisionRecord
from repro.telemetry.tracing.spans import Span

#: Version tag embedded in Chrome-trace metadata and decision records.
TRACE_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Spans — Chrome trace-event JSON
# ----------------------------------------------------------------------
def _trace_event(span: Span) -> Dict[str, Any]:
    return {
        "name": f"{span.kind}#{span.qid}",
        "cat": span.kind,
        "ph": "X",
        "ts": span.start,
        "dur": span.end - span.start,
        "pid": 1,
        "tid": span.site,
        "args": to_dict(span),
    }


def _chrome_chunks(spans: Iterable[Span]) -> Iterator[str]:
    # The document minus its events, then one event per chunk.
    # "traceEvents" is the last key in sorted order, so the events close
    # the document.
    head = CANONICAL_JSON.encode(
        {
            "displayTimeUnit": "ms",
            "metadata": {"trace_format_version": TRACE_FORMAT_VERSION},
        }
    )
    yield head[:-1] + ',"traceEvents":['
    separator = ""
    for span in spans:
        yield separator + CANONICAL_JSON.encode(_trace_event(span))
        separator = ","
    yield "]}\n"


def spans_to_chrome_json(spans: Iterable[Span]) -> str:
    """Render *spans* as a canonical Chrome trace-event JSON document.

    Complete events (``"ph": "X"``): ``ts`` is the span start, ``dur``
    its duration, ``tid`` the site row, and the exact span dict rides in
    ``args`` (the viewer shows it in the selection panel; the reader
    round-trips from it).  Returns the document with a trailing newline.
    """
    return "".join(_chrome_chunks(spans))


def _span_from_trace_event(obj: Dict[str, Any]) -> Any:
    """``object_hook``: replace a trace event with the span in its args.

    Objects are decoded innermost first, so by the time a trace event is
    seen its ``args`` is already a plain dict; any other object (the
    args themselves, metadata, the document) passes through.
    """
    args = obj.get("args")
    if isinstance(args, dict):
        return from_dict(Span, args)
    return obj


def _spans_from_document(document: Any) -> Tuple[Span, ...]:
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace-event document")
    spans = document["traceEvents"]
    for entry in spans:
        if not isinstance(entry, Span):
            raise ValueError("trace event is missing its span args")
    return tuple(spans)


def spans_from_chrome_json(text: str) -> Tuple[Span, ...]:
    """Rebuild spans from :func:`spans_to_chrome_json` output.

    Raises:
        ValueError: If the document is not a Chrome trace produced by
            this module (missing ``traceEvents`` or span ``args``).
    """
    return _spans_from_document(
        json.loads(text, object_hook=_span_from_trace_event)
    )


def write_spans_chrome(spans: Iterable[Span], path: PathLike) -> Path:
    """Write *spans* to *path* as Chrome trace-event JSON; returns the path."""
    return write_chunks(_chrome_chunks(spans), path)


def read_spans_chrome(path: PathLike) -> Tuple[Span, ...]:
    """Read spans back from a :func:`write_spans_chrome` file."""
    with open(path, "r", encoding="utf-8") as stream:
        return _spans_from_document(
            json.load(stream, object_hook=_span_from_trace_event)
        )


# ----------------------------------------------------------------------
# Decision records — JSONL
# ----------------------------------------------------------------------
def _decisions_jsonl_chunks(records: Iterable[DecisionRecord]) -> Iterator[str]:
    for record in records:
        yield CANONICAL_JSON.encode(to_dict(record)) + "\n"


def decisions_to_jsonl(records: Iterable[DecisionRecord]) -> str:
    """Render decision records as canonical JSONL (trailing newline)."""
    return "".join(_decisions_jsonl_chunks(records))


def _decisions_from_lines(lines: Iterable[str]) -> Tuple[DecisionRecord, ...]:
    return tuple(
        from_dict(DecisionRecord, json.loads(line)) for line in lines if line.strip()
    )


def decisions_from_jsonl(text: str) -> Tuple[DecisionRecord, ...]:
    """Rebuild decision records from :func:`decisions_to_jsonl` output.

    Blank lines are ignored, mirroring the event-stream JSONL reader.
    """
    return _decisions_from_lines(text.splitlines())


def write_decisions_jsonl(
    records: Iterable[DecisionRecord], path: PathLike
) -> Path:
    """Write decision records to *path* as canonical JSONL; returns the path."""
    return write_chunks(_decisions_jsonl_chunks(records), path)


def read_decisions_jsonl(path: PathLike) -> Tuple[DecisionRecord, ...]:
    """Read decision records back from :func:`write_decisions_jsonl`."""
    with open(path, "r", encoding="utf-8") as stream:
        return _decisions_from_lines(stream)


__all__ = [
    "TRACE_FORMAT_VERSION",
    "spans_to_chrome_json",
    "spans_from_chrome_json",
    "write_spans_chrome",
    "read_spans_chrome",
    "decisions_to_jsonl",
    "decisions_from_jsonl",
    "write_decisions_jsonl",
    "read_decisions_jsonl",
]
