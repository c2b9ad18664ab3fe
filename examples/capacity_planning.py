"""Capacity planning: how many terminals can each site support?

The paper's Table 10 observation, as a planning tool: given a response-time
target, find the largest per-site terminal population (mpl) the system
sustains under each allocation policy.  Dynamic allocation buys capacity —
the same hardware supports 20-50% more terminals at the same response-time
target.

Run:  python examples/capacity_planning.py
"""

from repro import DistributedDatabase, make_policy, paper_defaults
from repro.analysis.capacity import local_response_time
from repro.experiments.report import TextTable

POLICIES = ("LOCAL", "BNQ", "LERT")
RESPONSE_TARGET = 60.0
MPL_GRID = range(8, 41, 4)
WARMUP = 1500.0
DURATION = 6000.0
SEED = 3


def response_time(policy: str, mpl: int) -> float:
    config = paper_defaults(mpl=mpl)
    system = DistributedDatabase(config, make_policy(policy), seed=SEED)
    return system.run(warmup=WARMUP, duration=DURATION).mean_response_time


def main() -> None:
    print(f"Target: mean response time <= {RESPONSE_TARGET:.0f} time units\n")
    table = TextTable(
        ["policy"] + [f"mpl {m}" for m in MPL_GRID] + ["max mpl"],
        title="Mean response time vs per-site terminals",
    )
    capacities = {}
    for policy in POLICIES:
        cells = []
        best = 0
        worst_so_far = 0.0
        for mpl in MPL_GRID:
            rt = response_time(policy, mpl)
            worst_so_far = max(worst_so_far, rt)  # enforce monotone reading
            cells.append(f"{rt:.1f}")
            if worst_so_far <= RESPONSE_TARGET:
                best = mpl
        capacities[policy] = best
        table.add_row(policy, *cells, str(best))
    # The LOCAL column is also available analytically (approximate MVA,
    # microseconds instead of simulation) — show it for comparison.
    analytic_cells = []
    analytic_best = 0
    for mpl in MPL_GRID:
        rt = local_response_time(paper_defaults(), mpl)
        analytic_cells.append(f"{rt:.1f}")
        if rt <= RESPONSE_TARGET:
            analytic_best = mpl
    table.add_row("LOCAL*", *analytic_cells, str(analytic_best))
    print(table.render())
    print("(* analytic, no simulation)")
    print()
    local = capacities["LOCAL"]
    lert = capacities["LERT"]
    if local:
        print(
            f"LERT supports {lert} terminals/site vs {local} for LOCAL "
            f"(+{100 * (lert - local) / local:.0f}% capacity on identical hardware)."
        )


if __name__ == "__main__":
    main()
