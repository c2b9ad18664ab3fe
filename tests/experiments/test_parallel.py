"""Serial-vs-parallel equivalence and determinism tests.

The contract under test: for any experiment in the harness, ``jobs=N``
produces results *bit-identical* to ``jobs=1`` — exact float equality, not
approximate.  Common random numbers make this well-defined (each replication
is a pure function of its seed), deterministic reassembly makes it true
regardless of completion order, and fsum-based averaging makes replication
averaging order-independent.
"""

import random

import pytest

from repro.experiments import (
    ablations,
    msg_sensitivity,
    table8,
    table9,
    table10,
    table11,
    table12,
)
from repro.experiments.common import average_results, policy_grid, simulate
from repro.experiments.context import StudyContext
from repro.experiments.parallel import (
    ReplicationTask,
    replication_tasks,
    resolve_jobs,
    run_task,
    run_tasks,
    simulate_many,
)
from repro.experiments.runconfig import QUICK, RunSettings
from repro.model.config import paper_defaults

#: Short but real runs: full paper-defaults systems, reduced horizons.
SMALL = RunSettings(warmup=150.0, duration=600.0, replications=1, base_seed=42)
SMALL3 = RunSettings(warmup=150.0, duration=600.0, replications=3, base_seed=42)


class TestResolveJobs:
    def test_serial_values(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_jobs(7) == 7

    def test_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1


class TestTaskSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ReplicationTask(paper_defaults(), "LOCAL", 1, 10.0, 20.0, "warp")

    def test_kwargs_canonicalized(self):
        a = ReplicationTask(
            paper_defaults(),
            "LERT",
            1,
            10.0,
            20.0,
            "stale",
            (("refresh_interval", 5.0),),
        )
        b = ReplicationTask(
            paper_defaults(),
            "LERT",
            1,
            10.0,
            20.0,
            "stale",
            (("refresh_interval", 5.0),),
        )
        assert a == b
        assert a.key() == b.key()

    def test_replication_tasks_use_settings_seeds(self):
        tasks = replication_tasks(paper_defaults(), "BNQ", SMALL3)
        assert [t.seed for t in tasks] == [SMALL3.seed_for(r) for r in range(3)]


class TestSimulateEquivalence:
    def test_single_pair_jobs4_identical(self, tiny_config):
        serial = simulate(tiny_config, "BNQ", SMALL3, StudyContext(jobs=1))
        parallel = simulate(tiny_config, "BNQ", SMALL3, StudyContext(jobs=4))
        assert serial == parallel  # exact dataclass equality, incl. CIs

    def test_simulate_many_matches_individual_simulate(self, tiny_config):
        cells = [
            replication_tasks(tiny_config, "LOCAL", SMALL),
            replication_tasks(tiny_config, "BNQ", SMALL),
        ]
        batch = simulate_many(cells, context=JOBS4)
        assert batch[0] == simulate(tiny_config, "LOCAL", SMALL)
        assert batch[1] == simulate(tiny_config, "BNQ", SMALL)

    def test_parallel_runs_are_repeatable(self, tiny_config):
        tasks = replication_tasks(tiny_config, "LERT", SMALL3)
        first = run_tasks(tasks, jobs=2)
        second = run_tasks(tasks, jobs=2)
        assert first == second

    def test_worker_matches_in_process_execution(self, tiny_config):
        """Subprocess workers reproduce in-process results exactly."""
        tasks = replication_tasks(tiny_config, "BNQ", SMALL3)[:2]
        in_process = [run_task(task) for task in tasks]
        via_pool = run_tasks(tasks, jobs=2)
        assert in_process == via_pool

    def test_duplicate_tasks_share_one_simulation(self, tiny_config):
        task = replication_tasks(tiny_config, "LOCAL", SMALL)[0]
        twice = run_tasks([task, task], jobs=1)
        assert twice[0] == twice[1] == run_task(task)


class TestAveragingOrderIndependence:
    def test_fsum_averaging_is_permutation_invariant(self, tiny_config):
        tasks = replication_tasks(tiny_config, "BNQ", SMALL3)
        runs = run_tasks(tasks, jobs=1)
        baseline = average_results("BNQ", runs)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = list(runs)
            rng.shuffle(shuffled)
            permuted = average_results("BNQ", shuffled)
            # Averages are exactly equal under permutation...
            assert permuted.mean_waiting_time == baseline.mean_waiting_time
            assert permuted.mean_response_time == baseline.mean_response_time
            assert permuted.fairness == baseline.fairness
            assert permuted.subnet_utilization == baseline.subnet_utilization
            assert permuted.cpu_utilization == baseline.cpu_utilization
            assert permuted.disk_utilization == baseline.disk_utilization
            assert permuted.remote_fraction == baseline.remote_fraction
            assert permuted.completions == baseline.completions
        # ...while per_replication preserves the order given.
        assert baseline.per_replication == tuple(runs)

    def test_average_results_requires_runs(self):
        with pytest.raises(ValueError):
            average_results("LOCAL", [])


#: (module, run_experiment kwargs) — reduced grids keep the suite fast while
#: still exercising every simulated table module through the pool.
TABLE_CASES = [
    pytest.param(table8, {"think_times": (150.0,)}, id="table8"),
    pytest.param(table9, {"mpl_values": (15,)}, id="table9"),
    pytest.param(table10, {"mpl_grid": (6, 10)}, id="table10"),
    pytest.param(table11, {"site_counts": (2, 4)}, id="table11"),
    pytest.param(table12, {"io_probs": (0.4,)}, id="table12"),
    pytest.param(msg_sensitivity, {"msg_lengths": (0.5, 2.0)}, id="msg"),
]


JOBS4 = StudyContext(jobs=4)


class TestTableEquivalence:
    @pytest.mark.parametrize("module, kwargs", TABLE_CASES)
    def test_jobs4_bit_identical_to_serial(self, module, kwargs):
        serial = module.run_experiment(SMALL, **kwargs)
        parallel = module.run_experiment(SMALL, **kwargs, context=JOBS4)
        assert serial == parallel
        assert module.format_table(serial) == module.format_table(parallel)

    def test_table9_quick_scale_equivalence(self):
        """One case at the real ``quick`` preset (the satellite contract)."""
        serial = table9.run_experiment(QUICK, mpl_values=(15,))
        parallel = table9.run_experiment(QUICK, mpl_values=(15,), context=JOBS4)
        assert serial == parallel


class TestPolicyGridEquivalence:
    def test_policy_grid_jobs_identical(self):
        configs = [
            paper_defaults(num_sites=3, mpl=mpl, think_time=50.0) for mpl in (3, 5)
        ]
        serial = policy_grid(configs, ("LOCAL", "BNQ"), SMALL)
        parallel = policy_grid(configs, ("LOCAL", "BNQ"), SMALL, JOBS4)
        assert serial == parallel


class TestAblationEquivalence:
    def test_stale_info_sweep(self):
        serial = ablations.stale_info_sweep(SMALL, intervals=(0.0, 25.0))
        parallel = ablations.stale_info_sweep(
            SMALL, intervals=(0.0, 25.0), context=JOBS4
        )
        assert serial == parallel

    def test_update_fraction_sweep(self):
        serial = ablations.update_fraction_sweep(SMALL, fractions=(0.0, 0.2))
        parallel = ablations.update_fraction_sweep(
            SMALL, fractions=(0.0, 0.2), context=JOBS4
        )
        assert serial == parallel

    def test_heterogeneity_study(self):
        serial = ablations.heterogeneity_study(SMALL, speed_factors=(0.5, 2.0))
        parallel = ablations.heterogeneity_study(
            SMALL, speed_factors=(0.5, 2.0), context=JOBS4
        )
        assert serial == parallel

    def test_disk_organization_study(self):
        serial = ablations.disk_organization_study(SMALL, policies=("LOCAL",))
        parallel = ablations.disk_organization_study(
            SMALL, policies=("LOCAL",), context=StudyContext(jobs=2)
        )
        assert serial == parallel
