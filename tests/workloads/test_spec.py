"""WorkloadSpec / AdmissionControl: validation, normalization, JSON."""

import dataclasses
import math

import pytest

from repro.model.config import paper_defaults
from repro.codec import ConfigError, from_dict, load, save, to_dict
from repro.workloads import (
    AdmissionControl,
    ClosedTerminals,
    DiurnalRate,
    MMPP,
    PoissonOpen,
    TraceDriven,
    WorkloadError,
    WorkloadSpec,
    estimate_site_capacity,
    normalize_workload,
)

OPEN_SPECS = (
    WorkloadSpec(arrivals=PoissonOpen(rate=0.08)),
    WorkloadSpec(arrivals=PoissonOpen(rate=0.5, per_site=False)),
    WorkloadSpec(
        arrivals=PoissonOpen(rate=0.08),
        admission=AdmissionControl(max_pending=32),
    ),
    WorkloadSpec(
        arrivals=MMPP(rates=(0.02, 0.18), mean_holding=(400.0, 400.0)),
        admission=AdmissionControl(max_pending=8),
    ),
    WorkloadSpec(
        arrivals=DiurnalRate(base_rate=0.05, amplitude=0.6, period=5000.0)
    ),
    WorkloadSpec(
        arrivals=TraceDriven(arrivals=((0.0, 0), (1.5, 2), (1.5, 1)))
    ),
)


class TestValidation:
    def test_admission_rejects_closed_terminals(self):
        with pytest.raises(WorkloadError, match="closed terminals"):
            WorkloadSpec(
                arrivals=ClosedTerminals(),
                admission=AdmissionControl(max_pending=4),
            )

    def test_max_pending_must_be_positive_int(self):
        with pytest.raises(WorkloadError, match=">= 1"):
            AdmissionControl(max_pending=0)
        with pytest.raises(WorkloadError, match="int"):
            AdmissionControl(max_pending=2.5)
        with pytest.raises(WorkloadError, match="int"):
            AdmissionControl(max_pending=True)  # bools are not limits

    def test_poisson_rate_must_be_positive_and_finite(self):
        with pytest.raises(WorkloadError):
            PoissonOpen(rate=0.0)
        with pytest.raises(WorkloadError):
            PoissonOpen(rate=-1.0)
        with pytest.raises(WorkloadError):
            PoissonOpen(rate=math.inf)

    def test_mmpp_shape_checks(self):
        with pytest.raises(WorkloadError, match="2 phases"):
            MMPP(rates=(0.1,), mean_holding=(10.0,))
        with pytest.raises(WorkloadError, match="holding means"):
            MMPP(rates=(0.1, 0.2), mean_holding=(10.0,))
        with pytest.raises(WorkloadError, match=">= 0"):
            MMPP(rates=(-0.1, 0.2), mean_holding=(10.0, 10.0))
        with pytest.raises(WorkloadError, match="at least one"):
            MMPP(rates=(0.0, 0.0), mean_holding=(10.0, 10.0))
        with pytest.raises(WorkloadError, match="> 0"):
            MMPP(rates=(0.1, 0.2), mean_holding=(10.0, 0.0))
        with pytest.raises(WorkloadError, match="per_site"):
            MMPP(rates=(0.1, 0.2), mean_holding=(10.0, 10.0), per_site=False)

    def test_diurnal_shape_checks(self):
        with pytest.raises(WorkloadError, match="amplitude"):
            DiurnalRate(base_rate=0.1, amplitude=1.5, period=100.0)
        with pytest.raises(WorkloadError, match="period"):
            DiurnalRate(base_rate=0.1, amplitude=0.5, period=0.0)
        with pytest.raises(WorkloadError, match="base_rate"):
            DiurnalRate(base_rate=0.0, amplitude=0.5, period=100.0)

    def test_trace_shape_checks(self):
        with pytest.raises(WorkloadError, match=">= 1 arrival"):
            TraceDriven(arrivals=())
        with pytest.raises(WorkloadError, match="nondecreasing"):
            TraceDriven(arrivals=((5.0, 0), (1.0, 0)))
        with pytest.raises(WorkloadError, match="sites"):
            TraceDriven(arrivals=((0.0, -1),))

    def test_trace_validates_sites_against_config(self, tiny_config):
        spec = WorkloadSpec(arrivals=TraceDriven(arrivals=((0.0, 99),)))
        with pytest.raises(WorkloadError, match="99"):
            spec.validate_for(tiny_config)

    def test_open_specs_validate_against_paper_defaults(self):
        config = paper_defaults()
        for spec in OPEN_SPECS:
            spec.validate_for(config)


class TestNormalization:
    def test_none_stays_none(self):
        assert normalize_workload(None) is None

    def test_default_spec_normalizes_to_none(self):
        assert normalize_workload(WorkloadSpec()) is None
        assert WorkloadSpec().is_default()

    def test_open_specs_pass_through(self):
        for spec in OPEN_SPECS:
            assert normalize_workload(spec) is spec
            assert not spec.is_default()

    def test_non_spec_rejected(self):
        with pytest.raises(WorkloadError, match="WorkloadSpec"):
            normalize_workload(PoissonOpen(rate=0.1))

    def test_kind_reflects_arrivals(self):
        assert WorkloadSpec().kind == "closed"
        assert WorkloadSpec(arrivals=PoissonOpen(rate=0.1)).kind == "poisson"


class TestSerializationRoundTrip:
    def test_every_builtin_roundtrips(self):
        for spec in (WorkloadSpec(), *OPEN_SPECS):
            restored = from_dict(WorkloadSpec, to_dict(spec))
            assert restored == spec, spec

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "workload.json"
        for spec in OPEN_SPECS:
            save(spec, path)
            assert load(WorkloadSpec, path) == spec

    def test_custom_arrival_process_rejected(self):
        class Custom:
            kind = "custom"

        spec = WorkloadSpec.__new__(WorkloadSpec)
        object.__setattr__(spec, "arrivals", Custom())
        object.__setattr__(spec, "admission", None)
        with pytest.raises(ConfigError):
            to_dict(spec)

    def test_unknown_kind_rejected_on_read(self):
        payload = to_dict(OPEN_SPECS[0])
        payload["arrivals"]["kind"] = "martian"
        with pytest.raises(ConfigError):
            from_dict(WorkloadSpec, payload)

    def test_missing_field_rejected_on_read(self):
        payload = to_dict(OPEN_SPECS[0])
        del payload["arrivals"]["rate"]
        with pytest.raises(ConfigError):
            from_dict(WorkloadSpec, payload)


class TestCapacityEstimate:
    def test_paper_defaults_value(self):
        # cpu: 0.5*20*0.05 + 0.5*20*1.0 = 10.5; disk: 20*1/2 = 10.
        # CPU binds, so capacity = 1/10.5.
        assert estimate_site_capacity(paper_defaults()) == pytest.approx(
            1.0 / 10.5
        )

    def test_disk_bound_config_uses_disk_demand(self):
        config = paper_defaults()
        single_disk = dataclasses.replace(
            config, site=dataclasses.replace(config.site, num_disks=1)
        )
        # disk: 20*1/1 = 20 > cpu 10.5, so the disk binds.
        assert estimate_site_capacity(single_disk) == pytest.approx(1.0 / 20.0)
