"""The workload API: ``repro.workloads`` is the one entry point."""

import warnings

from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy


class TestConstruction:
    def test_normal_construction_is_warning_free(self, tiny_config):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system = DistributedDatabase(
                tiny_config, make_policy("LOCAL"), seed=5
            )
            results = system.run(warmup=20.0, duration=100.0)
        assert results.completions > 0


class TestPublicSurface:
    def test_package_reexports_workload_api(self):
        import repro

        for name in (
            "WorkloadSpec",
            "WorkloadSummary",
            "WorkloadError",
            "AdmissionControl",
            "ArrivalProcess",
            "ClosedTerminals",
            "PoissonOpen",
            "MMPP",
            "DiurnalRate",
            "TraceDriven",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_workloads_package_exports_protocol_members(self):
        from repro import workloads

        for name in (
            "ArrivalProcess",
            "ArrivalSpec",
            "PhaseTrack",
            "WorkloadDriver",
            "next_thinned_gap",
            "normalize_workload",
            "start_workload",
            "estimate_site_capacity",
            "launch_closed_terminals",
            "terminal_process",
        ):
            assert hasattr(workloads, name), name

    def test_builtin_arrivals_satisfy_the_protocol(self):
        from repro.workloads import (
            ArrivalProcess,
            ClosedTerminals,
            DiurnalRate,
            MMPP,
            PoissonOpen,
            TraceDriven,
        )

        instances = (
            ClosedTerminals(),
            PoissonOpen(rate=0.1),
            MMPP(rates=(0.1, 0.2), mean_holding=(10.0, 10.0)),
            DiurnalRate(base_rate=0.1, amplitude=0.5, period=100.0),
            TraceDriven(arrivals=((0.0, 0),)),
        )
        for instance in instances:
            assert isinstance(instance, ArrivalProcess), instance
