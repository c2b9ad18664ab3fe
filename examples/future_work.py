"""The paper's future-work directions, running.

Four extensions built on the same model, each a mechanism of
``DistributedDatabase`` itself, set by its ``Mechanisms``:

1. **Stale load information** — the paper assumes free, always-current load
   state; here information refreshes periodically, and the example shows
   how LERT degrades (and eventually herds: with very stale state every
   site routes to the same "least loaded" victim and performance falls
   below LOCAL).
2. **Query migration** — partially executed queries re-evaluate their
   placement between read cycles and may move.
3. **Partial replication** — data items live on k of the S sites and the
   allocator chooses among holders only.
4. **Subquery pipelines** — distributed queries decomposed into
   per-stage-allocated subqueries with intermediate-result data moves
   (the paper's stated end goal).

Run:  python examples/future_work.py
"""

from repro import DistributedDatabase, Mechanisms, make_policy, paper_defaults
from repro.model.replication import ReplicationMap

WARMUP = 1500.0
DURATION = 6000.0
SEED = 13


def main() -> None:
    config = paper_defaults()

    base = DistributedDatabase(config, make_policy("LERT"), seed=SEED)
    base_result = base.run(warmup=WARMUP, duration=DURATION)
    print(f"baseline LERT (fresh info, no migration): W={base_result.mean_waiting_time:.2f}")
    print()

    print("1) Load-information staleness (refresh interval sweep):")
    for interval in (5.0, 25.0, 100.0, 400.0):
        system = DistributedDatabase(
            config,
            make_policy("LERT"),
            seed=SEED,
            mechanisms=Mechanisms(refresh_interval=interval),
        )
        result = system.run(warmup=WARMUP, duration=DURATION)
        print(f"   refresh {interval:6.1f}: W={result.mean_waiting_time:6.2f}")
    print()

    print("2) Query migration between read cycles:")
    for threshold in (1.25, 1.5, 2.0):
        system = DistributedDatabase(
            config,
            make_policy("LERT"),
            seed=SEED,
            mechanisms=Mechanisms(threshold=threshold, max_migrations=2),
        )
        result = system.run(warmup=WARMUP, duration=DURATION)
        print(
            f"   threshold {threshold:.2f}: W={result.mean_waiting_time:6.2f} "
            f"({system.total_migrations} migrations)"
        )
    print()

    print("3) Partial replication (copies per data item):")
    for copies in (1, 2, 3, 6):
        replication = ReplicationMap.round_robin_k(
            config.num_sites, num_items=24, copies=copies
        )
        system = DistributedDatabase(
            config,
            make_policy("LERT"),
            seed=SEED,
            mechanisms=Mechanisms(replication=replication),
        )
        result = system.run(warmup=WARMUP, duration=DURATION)
        print(
            f"   {copies} copies: W={result.mean_waiting_time:6.2f} "
            f"(remote {result.remote_fraction:.0%})"
        )
    print()
    print(
        "Note the paper's Table 11 message in new clothes: more copies give "
        "the allocator more freedom, but 1 copy removes all freedom and "
        "full replication maximizes it."
    )
    print()

    print("4) Subquery pipelines (per-stage allocation + data moves):")
    replication = ReplicationMap.round_robin_k(
        config.num_sites, num_items=24, copies=3
    )
    for name in ("LOCAL", "LERT"):
        system = DistributedDatabase(
            config,
            make_policy(name),
            seed=SEED,
            mechanisms=Mechanisms(
                replication=replication, multi_prob=0.5, subquery_count=3
            ),
        )
        result = system.run(warmup=WARMUP, duration=DURATION)
        print(
            f"   {name:6s}: W={result.mean_waiting_time:6.2f} "
            f"({system.distributed_queries} distributed queries, "
            f"{system.data_moves} data moves)"
        )


if __name__ == "__main__":
    main()
