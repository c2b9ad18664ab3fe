"""System kinds at the task boundary: validation and newly legal combinations.

A ``system_kind`` names which mechanisms of the one
:class:`~repro.model.system.DistributedDatabase` a task switches on.  Bad
parameters are rejected where the task (or study spec) is built, never
inside a worker; every kind runs under open workloads, and every kind but
``"updates"`` runs under a fault plan.
"""

import pytest

from repro.ablation.spec import BaselineRun, Variant
from repro.experiments.parallel import ReplicationTask, run_tasks
from repro.faults.plan import FaultPlan, MessageFaults, SiteOutage
from repro.model.config import paper_defaults
from repro.model.mechanisms import SYSTEM_KINDS
from repro.workloads.arrivals import PoissonOpen
from repro.workloads.spec import AdmissionControl, WorkloadSpec

CONFIG = paper_defaults(num_sites=3, mpl=5)
FAULTS = FaultPlan(
    site_outages=(SiteOutage(site=1, at=150.0, duration=100.0),),
    messages=MessageFaults(loss_prob=0.05),
)
OPEN = WorkloadSpec(
    arrivals=PoissonOpen(rate=0.03), admission=AdmissionControl(max_pending=8)
)
SPEEDS = (("cpu_speed_factors", (2.0, 1.0, 0.5)),)


def _task(kind="standard", kwargs=(), faults=None, workload=None, policy="LERT"):
    return ReplicationTask(
        config=CONFIG,
        policy=policy,
        seed=5,
        warmup=50.0,
        duration=600.0,
        system_kind=kind,
        system_kwargs=kwargs,
        faults=faults,
        workload=workload,
    )


#: (system kind, parameters, fault plan, expected message fragment)
BAD = [
    pytest.param("stale", (("update_prob", 0.2),), None, "does not take update_prob",
                 id="unknown-parameter"),
    pytest.param("heterogeneous", (), None, "requires cpu_speed_factors",
                 id="missing-speeds"),
    pytest.param("standard", (("refresh_interval", 5.0),), None,
                 "does not take refresh_interval", id="parameters-on-standard"),
    pytest.param("updates", (), FAULTS, "fault plan", id="updates-under-faults"),
    pytest.param("updates", (("update_prob", 1.5),), None,
                 r"update_prob must be in \[0, 1\]", id="update-prob-above-one"),
    pytest.param("stale", (("refresh_interval", -5.0),), None,
                 "refresh_interval must be >= 0", id="negative-refresh"),
    pytest.param("heterogeneous", (("cpu_speed_factors", (1.0, 2.0)),), None,
                 "2 speed factors for 3 sites", id="speeds-per-site"),
]

#: Entries of BAD that only the task's config can catch: a study variant
#: has no config of its own.
NEEDS_CONFIG = {"speeds-per-site"}


class TestValidation:
    def test_kinds_are_unchanged(self):
        assert tuple(SYSTEM_KINDS) == ("standard", "stale", "updates", "heterogeneous")

    @pytest.mark.parametrize("kind,kwargs,faults,fragment", BAD)
    def test_replication_task_rejects(self, kind, kwargs, faults, fragment):
        with pytest.raises(ValueError, match=fragment) as info:
            _task(kind, kwargs, faults)
        assert repr(kind) in str(info.value)

    @pytest.mark.parametrize(
        "kind,kwargs,faults,fragment", [p for p in BAD if p.id not in NEEDS_CONFIG]
    )
    def test_variant_rejects(self, kind, kwargs, faults, fragment):
        with pytest.raises(ValueError, match=fragment):
            Variant(name="v", system_kind=kind, system_kwargs=kwargs, faults=faults)

    @pytest.mark.parametrize(
        "kind,kwargs", [("stale", (("bogus", 1),)), ("heterogeneous", ())]
    )
    def test_baseline_rejects(self, kind, kwargs):
        with pytest.raises(ValueError, match="it accepts"):
            BaselineRun(policy="LERT", system_kind=kind, system_kwargs=kwargs)

    def test_message_lists_accepted_parameters(self):
        with pytest.raises(ValueError, match="refresh_interval, broadcast_cost"):
            _task("stale", (("refresh", 5.0),))


#: Kinds x conditions that used to be rejected and now run.
COMBINATIONS = [
    pytest.param("stale", (("refresh_interval", 50.0),), FAULTS, None, id="stale-faults"),
    pytest.param("stale", (("refresh_interval", 50.0),), None, OPEN, id="stale-open"),
    pytest.param("heterogeneous", SPEEDS, FAULTS, None, id="heterogeneous-faults"),
    pytest.param("heterogeneous", SPEEDS, None, OPEN, id="heterogeneous-open"),
    pytest.param("updates", (), None, OPEN, id="updates-open"),
]


class TestCombinations:
    @pytest.mark.parametrize("kind,kwargs,faults,workload", COMBINATIONS)
    def test_runs_and_replays_under_the_pool(self, kind, kwargs, faults, workload):
        tasks = [
            _task(kind, kwargs, faults, workload, policy=policy)
            for policy in ("LERT", "BNQRD")
        ]
        serial = run_tasks(tasks, jobs=1)
        pooled = run_tasks(tasks, jobs=2)
        assert serial == pooled
        for results in serial:
            assert results.completions > 0
            if faults is not None:
                assert results.availability is not None
            if workload is not None:
                assert results.workload is not None
