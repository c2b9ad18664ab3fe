"""Drilling into a run with its query-completion events.

The aggregate metrics say *how well* a policy did; the event log says
*why*.  This example runs LERT on the paper's defaults with the event log
on, then reads its :class:`repro.telemetry.events.QueryCompleted` events
(each carries the query's whole life cycle) to answer questions the
summary cannot: which queries waited longest and where, how remote
execution's transfer delays break down, and how the two classes' waits
compare per site.

Run:  python examples/trace_analysis.py
"""

from collections import Counter

from repro import RunSpec, TelemetryConfig, paper_defaults, run
from repro.telemetry.events import QueryCompleted


def main() -> None:
    config = paper_defaults()
    report = run(
        config,
        "LERT",
        RunSpec(
            warmup=1000.0,
            duration=6000.0,
            seed=21,
            telemetry=TelemetryConfig(events=True),
        ),
    )
    completed = [e for e in report.events if isinstance(e, QueryCompleted)]
    print(report.results)
    print(f"traced {len(completed)} query records\n")

    print("Ten slowest queries:")
    print(" qid      class  home->exec   waited   service  reads-equiv")
    slowest = sorted(completed, key=lambda e: e.waiting_time, reverse=True)
    for event in slowest[:10]:
        route = f"{event.home_site}->{event.execution_site}"
        print(
            f" {event.qid:7d}  {event.class_name:5s}  {route:10s} "
            f"{event.waiting_time:8.2f}  {event.service_time:8.2f}"
            f"  {event.service_time / (1 + 0.5):10.1f}"
        )
    print()

    print("Mean waiting by class and execution site:")
    for class_name in ("io", "cpu"):
        row = []
        for site in range(config.num_sites):
            waits = [
                e.waiting_time
                for e in completed
                if e.execution_site == site and e.class_name == class_name
            ]
            mean = sum(waits) / len(waits) if waits else 0.0
            row.append(f"{mean:6.2f}")
        print(f"  {class_name:4s} " + " ".join(row))
    print()

    remote = [e for e in completed if e.remote]
    if remote:
        # Outbound: allocation to execution start; return: execution end
        # to the results arriving home (the event's own time).
        out = sum(e.started_at - e.allocated_at for e in remote) / len(remote)
        back = sum(e.time - e.finished_at for e in remote) / len(remote)
        print(
            f"Remote queries: {len(remote)} "
            f"(avg outbound delay {out:.2f}, avg return delay {back:.2f})"
        )
    moves = Counter(
        (e.home_site, e.execution_site) for e in remote
    ).most_common(5)
    print("Most common transfer routes:", moves)


if __name__ == "__main__":
    main()
