"""Custom sensitivity analysis with ``policy_grid``.

The paper fixes disk_time = 1.0 and num_reads = 20; this example asks a
question the paper doesn't: *how does the value of dynamic allocation
change when queries get shorter?*  Short queries mean the (fixed)
msg_length is a larger fraction of the work — transfers should pay off
less, and LERT's network-awareness should matter more relative to BNQ.

Also demonstrates CSV export for downstream analysis.

Run:  python examples/sensitivity_sweep.py
"""

import csv
import dataclasses
import tempfile

from repro import paper_defaults
from repro.experiments import RunSettings, policy_grid
from repro.experiments.report import TextTable, improvement_pct
from repro.model.config import set_config_parameter

SETTINGS = RunSettings(warmup=1000.0, duration=5000.0, replications=1, base_seed=17)


def config_with_reads(num_reads: float):
    base = paper_defaults()
    classes = tuple(
        dataclasses.replace(spec, num_reads=num_reads) for spec in base.classes
    )
    return dataclasses.replace(base, classes=classes)


def main() -> None:
    table = TextTable(
        ["num_reads", "W LOCAL", "W BNQ", "W LERT", "dBNQ%", "dLERT%", "LERT-BNQ gap"],
        title="Query length sensitivity (shorter queries, relatively pricier transfers)",
    )
    reads = (5.0, 10.0, 20.0, 40.0)
    grid = policy_grid(
        [config_with_reads(num_reads) for num_reads in reads],
        ("LOCAL", "BNQ", "LERT"),
        SETTINGS,
    )
    for num_reads, results in zip(reads, grid):
        local = results["LOCAL"].mean_waiting_time
        bnq = results["BNQ"].mean_waiting_time
        lert = results["LERT"].mean_waiting_time
        table.add_row(
            f"{num_reads:g}",
            f"{local:.2f}",
            f"{bnq:.2f}",
            f"{lert:.2f}",
            f"{improvement_pct(bnq, local):.1f}",
            f"{improvement_pct(lert, local):.1f}",
            f"{improvement_pct(lert, bnq):+.1f}",
        )
    print(table.render())
    print()

    # A one-dimensional sweep of a dotted config path, exported as CSV.
    lengths = (0.5, 1.0, 2.0)
    policies = ("BNQ", "LERT")
    grid = policy_grid(
        [
            set_config_parameter(paper_defaults(), "network.msg_length", length)
            for length in lengths
        ],
        policies,
        SETTINGS,
    )
    with tempfile.NamedTemporaryFile(
        suffix=".csv", delete=False, mode="w", newline=""
    ) as handle:
        writer = csv.writer(handle)
        writer.writerow(["msg_length", "policy", "mean_waiting_time", "completions"])
        for length, results in zip(lengths, grid):
            for policy in policies:
                cell = results[policy]
                writer.writerow(
                    [length, policy, f"{cell.mean_waiting_time:.6g}", cell.completions]
                )
    print(f"msg_length sweep exported to {handle.name}")
    for policy in policies:
        series = [round(results[policy].mean_waiting_time, 2) for results in grid]
        print(f"  {policy:<4} W series:", series)


if __name__ == "__main__":
    main()
