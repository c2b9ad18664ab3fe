"""Byte-determinism and golden pins for the tracing exporters.

Three layers of guarantees:

* **format round-trips** — Chrome trace JSON and decision JSONL restore
  the exact spans/records they were built from;
* **replay byte-identity** — re-running the same scenario (including a
  faulted run and an open-workload run) exports byte-identical text,
  and a traced run's `SystemResults` equals the parallel backend's
  (``jobs=2``) results for the same task, modulo the telemetry fields
  that never enter the cache;
* **golden pin** — a committed example trace + decision log under
  ``tests/telemetry/data/`` regenerates byte-for-byte, with sha256
  digests recorded in ``MANIFEST.json``.  Like the kernel's golden
  corpus, the pin turns exporter format changes into loud, reviewable
  diffs.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.parallel import ReplicationTask, run_tasks
from repro.runner import RunSpec, run
from repro.telemetry.session import TelemetryConfig
from repro.telemetry.tracing import (
    TRACE_FORMAT_VERSION,
    decisions_from_jsonl,
    decisions_to_jsonl,
    read_decisions_jsonl,
    read_spans_chrome,
    spans_from_chrome_json,
    spans_to_chrome_json,
)
from repro.workloads import AdmissionControl, PoissonOpen, WorkloadSpec
from tests.golden.corpus import golden_config, golden_fault_plan

DATA_DIR = Path(__file__).resolve().parent / "data"

#: The committed-artifact scenario.  Changing any of this (or the export
#: formats) requires regenerating the artifacts — see MANIFEST.json.
GOLDEN_POLICY = "LERT"
GOLDEN_SPEC = RunSpec(
    warmup=50.0,
    duration=400.0,
    seed=7,
    telemetry=TelemetryConfig(events=False, spans=True, decisions=True),
)

TRACING = TelemetryConfig(events=False, spans=True, decisions=True)


def golden_report():
    """The committed scenario, replayed."""
    return run(golden_config(), GOLDEN_POLICY, GOLDEN_SPEC)


def build_artifacts():
    """The committed artifact bytes: (chrome trace, decision JSONL)."""
    report = golden_report()
    return spans_to_chrome_json(report.spans), decisions_to_jsonl(report.decisions)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestRoundTrips:
    def test_chrome_trace_round_trip(self, tiny_config):
        spec = dataclasses.replace(GOLDEN_SPEC, duration=200.0)
        report = run(tiny_config, "BNQRD", spec)
        text = spans_to_chrome_json(report.spans)
        assert spans_from_chrome_json(text) == report.spans

    def test_chrome_trace_is_valid_trace_event_json(self, tiny_config):
        spec = dataclasses.replace(GOLDEN_SPEC, duration=200.0)
        report = run(tiny_config, "BNQRD", spec)
        document = json.loads(spans_to_chrome_json(report.spans))
        assert document["metadata"]["trace_format_version"] == (
            TRACE_FORMAT_VERSION
        )
        assert document["displayTimeUnit"] == "ms"
        for event in document["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert isinstance(event["args"]["span_id"], str)

    def test_decisions_round_trip(self, tiny_config):
        spec = dataclasses.replace(GOLDEN_SPEC, duration=200.0)
        report = run(tiny_config, "BNQRD", spec)
        text = decisions_to_jsonl(report.decisions)
        assert decisions_from_jsonl(text) == report.decisions

    def test_file_io_round_trip(self, tiny_config, tmp_path):
        spec = dataclasses.replace(GOLDEN_SPEC, duration=200.0)
        report = run(tiny_config, "BNQRD", spec)
        spans_path = report.write_spans(tmp_path / "trace.json")
        decisions_path = report.write_decisions(tmp_path / "decisions.jsonl")
        assert read_spans_chrome(spans_path) == report.spans
        assert read_decisions_jsonl(decisions_path) == report.decisions

    def test_non_trace_document_rejected(self):
        with pytest.raises(ValueError):
            spans_from_chrome_json('{"not": "a trace"}')

    def test_trace_event_without_span_args_rejected(self):
        with pytest.raises(ValueError, match="not a Chrome"):
            spans_from_chrome_json("[]")
        with pytest.raises(ValueError, match="missing its span args"):
            spans_from_chrome_json('{"traceEvents":[{"ph":"X"}]}')
        with pytest.raises(ValueError, match="missing its span args"):
            spans_from_chrome_json('{"traceEvents":[{"ph":"X","args":1}]}')

    def test_empty_trace_is_a_complete_document(self):
        text = spans_to_chrome_json(())
        assert text == (
            '{"displayTimeUnit":"ms","metadata":{"trace_format_version":1},'
            '"traceEvents":[]}\n'
        )
        assert spans_from_chrome_json(text) == ()


class TestReplayByteIdentity:
    def _exports(self, config, policy, spec):
        report = run(config, policy, spec)
        return (
            spans_to_chrome_json(report.spans),
            decisions_to_jsonl(report.decisions),
        )

    def test_plain_run(self, tiny_config):
        spec = dataclasses.replace(GOLDEN_SPEC, duration=300.0)
        assert self._exports(tiny_config, "BNQRD", spec) == self._exports(
            tiny_config, "BNQRD", spec
        )

    def test_faulted_run(self):
        spec = RunSpec(
            warmup=100.0,
            duration=900.0,
            seed=5,
            telemetry=TRACING,
            faults=golden_fault_plan(),
        )
        first = self._exports(golden_config(), "RANDOM", spec)
        second = self._exports(golden_config(), "RANDOM", spec)
        assert first == second
        # The chaos plan really exercised the fault span kinds.
        kinds = {span.kind for span in spans_from_chrome_json(first[0])}
        assert kinds & {"abort", "backoff", "drop", "lost"}

    def test_open_workload_run(self, tiny_config):
        spec = RunSpec(
            warmup=50.0,
            duration=400.0,
            seed=9,
            telemetry=TRACING,
            workload=WorkloadSpec(
                arrivals=PoissonOpen(rate=0.4),
                admission=AdmissionControl(max_pending=4),
            ),
        )
        first = self._exports(tiny_config, "BNQRD", spec)
        second = self._exports(tiny_config, "BNQRD", spec)
        assert first == second

    def test_traced_results_match_parallel_backend(self, tiny_config):
        """Tracing never leaks into the results the cache/backend sees."""
        spec = dataclasses.replace(GOLDEN_SPEC, duration=300.0)
        traced = run(tiny_config, "BNQRD", spec)
        task = ReplicationTask(
            config=tiny_config,
            policy="BNQRD",
            seed=spec.seed,
            warmup=spec.warmup,
            duration=spec.duration,
        )
        serial = run_tasks([task], jobs=1)
        parallel = run_tasks([task], jobs=2)
        assert serial == parallel
        assert (
            dataclasses.replace(
                traced.results, telemetry=None, spans=None, decisions=None
            )
            == serial[0]
        )


class TestGoldenArtifacts:
    """The committed example trace regenerates byte-for-byte."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        return build_artifacts()

    def test_manifest_digests_match_committed_files(self):
        manifest = json.loads(
            (DATA_DIR / "MANIFEST.json").read_text(encoding="utf-8")
        )
        trace_text = (DATA_DIR / "trace.json").read_text(encoding="utf-8")
        decisions_text = (DATA_DIR / "decisions.jsonl").read_text(
            encoding="utf-8"
        )
        assert manifest["trace_sha256"] == _sha256(trace_text)
        assert manifest["decisions_sha256"] == _sha256(decisions_text)
        assert manifest["trace_format_version"] == TRACE_FORMAT_VERSION

    def test_replay_reproduces_committed_bytes(self, artifacts):
        trace_text, decisions_text = artifacts
        assert trace_text == (DATA_DIR / "trace.json").read_text(
            encoding="utf-8"
        )
        assert decisions_text == (DATA_DIR / "decisions.jsonl").read_text(
            encoding="utf-8"
        )

    def test_committed_regrets_recompute(self):
        """The committed decision log is self-consistent (cost model)."""
        from repro.telemetry.tracing import decision_cost

        records = read_decisions_jsonl(DATA_DIR / "decisions.jsonl")
        assert records
        for record in records:
            cost_chosen = decision_cost(
                record.true_loads[record.chosen_site],
                record.est_service,
                record.est_transfer,
                record.est_return,
                remote=record.chosen_site != record.home_site,
            )
            assert record.cost_chosen == cost_chosen
            assert record.regret == record.cost_chosen - record.cost_best
            assert record.regret >= 0.0

    def test_committed_trace_parses_as_spans(self):
        spans = read_spans_chrome(DATA_DIR / "trace.json")
        assert spans
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids))
