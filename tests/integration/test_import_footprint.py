"""The run path imports no third-party code (no numpy, no scipy).

Student-t quantiles come from a recorded table, so ``import repro`` and a
default run stay pure Python: this is what keeps cold start and peak
memory low.  Checked in a fresh interpreter, since the test process
itself may already have imported either package.
"""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json, sys
import repro
from repro import DistributedDatabase, make_policy, paper_defaults
from repro.telemetry import TelemetryConfig

config = paper_defaults()
plain = DistributedDatabase(config, make_policy("LERT"), seed=3).run(
    warmup=100.0, duration=1000.0
)
traced = repro.run(
    config,
    "BNQRD",
    repro.RunSpec(
        warmup=100.0,
        duration=1000.0,
        seed=3,
        telemetry=TelemetryConfig(spans=True, decisions=True, sample_interval=100.0),
    ),
)
print(json.dumps({
    "ci": [plain.waiting_ci is not None, traced.results.waiting_ci is not None],
    "loaded": sorted(
        name for name in ("numpy", "scipy") if name in sys.modules
    ),
}))
"""


def test_import_and_runs_leave_numpy_and_scipy_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    report = json.loads(out.stdout)
    # Both runs computed a batch-means interval, i.e. used the t quantile.
    assert report["ci"] == [True, True]
    assert report["loaded"] == []
