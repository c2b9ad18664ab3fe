"""Pins of ``ReplicationTask.key()`` for every system kind and mechanism cell.

The cache key is the content address of a run: a refactor of how system
kinds and their parameters are declared or checked must leave it alone,
or every cached result and every committed key pin silently moves.  The
tasks below cover one task per system kind (defaults only, and with
overrides) and the four cells of the benchmark's ``mechanisms`` workload,
copied here as literals.
"""

import pytest

from repro.experiments.parallel import ReplicationTask
from repro.faults.plan import FaultPlan, LoadBoardOutage, MessageFaults, RandomOutages
from repro.model.config import paper_defaults

BENCH_FAULTS = FaultPlan(
    random_outages=(RandomOutages(mtbf=2000.0, mttr=200.0),),
    messages=MessageFaults(loss_prob=0.05),
    loadboard_outages=(LoadBoardOutage(at=1500.0, duration=500.0),),
)
SPEEDS = (("cpu_speed_factors", (2.0, 2.0, 1.0, 1.0, 0.5, 0.5)),)

#: name -> (ReplicationTask keyword arguments, pinned key)
PINS = {
    "standard": (
        dict(system_kind="standard"),
        "9d3cdeabaaf2f055992b0c1e5840436e2753da3bf7f47859536410c77fe90774",
    ),
    "stale-defaults": (
        dict(system_kind="stale"),
        "23301f267e8a5c382ab6c4f6a7003bc45077292c46db6fa06ffac33a7cc265a8",
    ),
    "stale-overrides": (
        dict(
            system_kind="stale",
            system_kwargs=(("broadcast_cost", 0.5), ("refresh_interval", 25.0)),
        ),
        "449514d96803ee072b8f1ba69d57c6242189f12e8ab08f07ec7b4da1131a077c",
    ),
    "updates-defaults": (
        dict(system_kind="updates"),
        "511a80328cb9a225c43bdd17822a18ab26b8be8ac9bb498814e9141e9b65a4ad",
    ),
    "updates-overrides": (
        dict(
            system_kind="updates",
            system_kwargs=(("update_pages", 8), ("update_prob", 0.5)),
        ),
        "bf02875d312f1315bbf042ed0b599d6b7116bef9c684a429ad9ec60dbe9ac500",
    ),
    "heterogeneous": (
        dict(system_kind="heterogeneous", system_kwargs=SPEEDS),
        "c9d97d86e6ed4d57a0d38de190f457c40e44f69f679eb0d949843405d5cc82d6",
    ),
    "bench-faulted": (
        dict(policy="BNQRD", system_kind="standard", faults=BENCH_FAULTS),
        "9644f2974ccd095e4818929bd49c915b6abd8a574878d0cd46d9eb960f383aa8",
    ),
    "bench-stale": (
        dict(system_kind="stale", system_kwargs=(("refresh_interval", 50.0),)),
        "b061105325db2da48ea20c14b6adb66066a4593c8e82793feaa319794a554327",
    ),
    "bench-updates": (
        dict(system_kind="updates", system_kwargs=(("update_prob", 0.2),)),
        "b7824eb77224ce1da8be1bea87ad09fa0b9fe6be83dc4f1d429b46b4fffa130b",
    ),
    "bench-heterogeneous": (
        dict(policy="LERT-HET", system_kind="heterogeneous", system_kwargs=SPEEDS),
        "b7741f8a349d28a11eba664d1cc3d5296826e63ccf9f20fb63befd1eb7f72e9a",
    ),
}


def _task(**kwargs):
    fields = dict(
        config=paper_defaults(), policy="LERT", seed=7, warmup=500.0, duration=6000.0
    )
    fields.update(kwargs)
    return ReplicationTask(**fields)


@pytest.mark.parametrize("name", sorted(PINS))
def test_task_key_is_pinned(name):
    kwargs, expected = PINS[name]
    assert _task(**kwargs).key() == expected
