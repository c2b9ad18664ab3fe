"""Self-test of the benchmark suite at tiny scale.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/suite`` (not part of tier 1).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_suite(out: Path, *args: str, cwd: Path = ROOT):
    """Run the suite at tiny scale; returns (exit status, stdout lines)."""
    done = subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"),
         "--scale", "tiny", "--out", str(out), *args],
        stdout=subprocess.PIPE, text=True, cwd=cwd, timeout=600, check=False,
    )
    return done.returncode, done.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    status, lines = run_suite(out)
    return status, json.loads(lines[-1]), out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    status, lines = run_suite(out, "--trace", "1")
    return status, json.loads(lines[-1]), out


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    status, result, _ = untraced
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == NAMES
    expected = _units(BENCHMARK["end_to_end"])
    for metrics in result["metrics"].values():
        assert _units({"name": k, **v} for k, v in metrics.items()) == expected
        assert all(entry["value"] > 0 for entry in metrics.values())


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    status, result, out = traced
    assert status == 0
    expected = _units(BENCHMARK["per_layer"])
    for metrics in result["metrics"].values():
        assert _units({"name": k, **v} for k, v in metrics.items()) == expected
    trace = json.loads((out / "bench_trace.json").read_text(encoding="utf-8"))
    layered = {e["pid"] for e in trace["traceEvents"]
               if e["ph"] == "C" and "sim.dispatch" in e["args"]}
    assert layered == set(range(1, len(NAMES) + 1))


def test_telemetry_is_idle_outside_traced_export(traced):
    _, result, _ = traced
    for name, metrics in result["metrics"].items():
        emitted = metrics["telemetry.emit_calls"]["value"]
        assert (emitted > 0) == (name == "traced_export")


def test_default_seed_matches_every_pin(untraced):
    status, result, out = untraced
    assert status == 0 and result["correct"] and result["failed"] == 0
    pins = json.loads((SUITE / "expected.json").read_text(encoding="utf-8"))
    for name in NAMES:
        record = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        assert record["digests"] == pins["tiny"][name]


def test_a_corrupted_pin_counts_as_a_failure(tmp_path):
    pins = json.loads((SUITE / "expected.json").read_text(encoding="utf-8"))
    pins["tiny"]["mechanisms"]["stale/LERT"] = "0" * 64
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps(pins), encoding="utf-8")
    status, lines = run_suite(
        tmp_path, "--workload", "mechanisms", "--expected", str(expected)
    )
    result = json.loads(lines[-1])
    assert status == 1
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] == 8
    assert any(line.startswith("  FAILED stale/LERT: digest") for line in lines)


def test_seed_changes_inputs_but_not_metric_names(untraced, tmp_path):
    _, default, default_out = untraced
    status, lines = run_suite(tmp_path, "--workload", "open_overload", "--seed", "2")
    assert status == 0
    assert json.loads(lines[-1])["metrics"].keys() == default["metrics"]["open_overload"].keys()
    digests = [
        json.loads((out / "open_overload.json").read_text(encoding="utf-8"))["digests"]
        for out in (default_out, tmp_path)
    ]
    assert digests[0].keys() == digests[1].keys()
    assert all(digests[0][cell] != digests[1][cell] for cell in digests[0])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    status, lines = run_suite(tmp_path / "out", cwd=tmp_path)
    assert status != 0
    assert lines == []


def test_workload_names_agree_with_the_code():
    sys.path.insert(0, str(SUITE))
    try:
        import workloads
    finally:
        sys.path.remove(str(SUITE))
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)
