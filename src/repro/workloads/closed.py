"""The paper's closed workload: think/submit terminal loops.

Each site has ``mpl`` terminals (the paper's multiprogramming level).  A
terminal is an endless think/submit loop: it thinks for an exponential
period, issues one query, waits for that query's results to come home,
and thinks again.  The closed-loop structure means system load
self-regulates with response time, exactly as in the paper's closed
queueing model.

This module is the one owner of the terminal processes.  Stream names
(``think.s{site}.t{terminal}``), process launch names and launch order
are unchanged from the seed, so a closed run is byte-identical whether it
was requested via the default or an explicit
:class:`~repro.workloads.arrivals.ClosedTerminals`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.process import Hold

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import DistributedDatabase


def terminal_process(
    system: "DistributedDatabase", site_index: int, terminal_id: int
) -> Generator[object, object, None]:
    """Generator body of one terminal (think → query → wait → repeat)."""
    sim = system.sim
    think_rng = sim.rng.stream(f"think.s{site_index}.t{terminal_id}")
    serial = 0
    while True:
        think = system.workload.think_time(think_rng)
        if think > 0:
            yield Hold(think)
        serial += 1
        query, query_rng = system.workload.new_query(
            site_index, terminal_id, serial
        )
        yield from system.execute_query(query, query_rng)


def launch_closed_terminals(system: "DistributedDatabase") -> None:
    """Launch every terminal process of every site."""
    for site_index in range(system.config.num_sites):
        for terminal_id in range(system.config.site.mpl):
            system.sim.launch(
                terminal_process(system, site_index, terminal_id),
                name=f"terminal.s{site_index}.t{terminal_id}",
            )


__all__ = ["terminal_process", "launch_closed_terminals"]
