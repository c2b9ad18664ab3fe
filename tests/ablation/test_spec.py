"""StudySpec construction, validation, and JSON round-trip."""

import json

import pytest

from repro.ablation.spec import (
    STUDY_METRICS,
    BaselineRun,
    Component,
    StudySpec,
    Variant,
)
from repro.codec import from_dict, load, save, to_dict
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.config import paper_defaults
from repro.workloads import AdmissionControl, PoissonOpen, WorkloadSpec

SMALL = RunSettings(warmup=50.0, duration=200.0, replications=2, base_seed=7)


def tiny_spec(**overrides) -> StudySpec:
    defaults = dict(
        name="tiny",
        title="Tiny",
        description="test spec",
        metric="response_time",
        config=paper_defaults(num_sites=2, mpl=3),
        baseline=BaselineRun(policy="LOCAL"),
        settings=SMALL,
        components=(
            Component(
                name="policy",
                description="who allocates",
                variants=(Variant(name="bnq", policy="BNQ"),),
            ),
        ),
    )
    defaults.update(overrides)
    return StudySpec(**defaults)


class TestValidation:
    def test_valid_spec_constructs(self):
        spec = tiny_spec()
        assert spec.component("policy").variants[0].name == "bnq"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            tiny_spec(metric="latency")

    def test_every_declared_metric_accepted(self):
        for metric in STUDY_METRICS:
            assert tiny_spec(metric=metric).metric == metric

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError, match="component"):
            tiny_spec(components=())

    def test_duplicate_component_names_rejected(self):
        component = Component(
            name="policy",
            description="",
            variants=(Variant(name="bnq", policy="BNQ"),),
        )
        with pytest.raises(ValueError, match="duplicate"):
            tiny_spec(components=(component, component))

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Component(
                name="policy",
                description="",
                variants=(
                    Variant(name="bnq", policy="BNQ"),
                    Variant(name="bnq", policy="RANDOM"),
                ),
            )

    def test_no_override_variant_rejected(self):
        with pytest.raises(ValueError, match="identical to the baseline"):
            Variant(name="noop")

    def test_kwargs_without_kind_rejected(self):
        with pytest.raises(ValueError, match="system_kwargs"):
            Variant(name="bad", system_kwargs=(("refresh_interval", 5.0),))

    def test_unknown_system_kind_rejected(self):
        with pytest.raises(ValueError, match="system kind"):
            BaselineRun(policy="LOCAL", system_kind="quantum")

    def test_bad_config_patch_fails_at_construction(self):
        component = Component(
            name="knob",
            description="",
            variants=(
                Variant(name="typo", config_patches=(("site.mppl", 9),)),
            ),
        )
        with pytest.raises((AttributeError, ValueError, KeyError, TypeError)):
            tiny_spec(components=(component,))

    def test_unknown_component_lookup(self):
        with pytest.raises(KeyError):
            tiny_spec().component("nonexistent")


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = tiny_spec()
        assert from_dict(StudySpec, to_dict(spec)) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "tiny.json"
        save(spec, path)
        assert load(StudySpec, path) == spec
        # The file is pretty-printed with stable key order.
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["format_version"] == StudySpec.format_version

    def test_round_trip_with_faults_and_workload(self):
        spec = tiny_spec(
            components=(
                Component(
                    name="environment",
                    description="",
                    variants=(
                        Variant(
                            name="outage",
                            faults=FaultPlan(
                                site_outages=(
                                    SiteOutage(site=0, at=60.0, duration=30.0),
                                )
                            ),
                        ),
                        Variant(
                            name="open",
                            workload=WorkloadSpec(
                                arrivals=PoissonOpen(rate=0.05),
                                admission=AdmissionControl(max_pending=4),
                            ),
                        ),
                    ),
                ),
            ),
        )
        assert from_dict(StudySpec, to_dict(spec)) == spec

    def test_round_trip_with_system_kwargs(self):
        spec = tiny_spec(
            baseline=BaselineRun(
                policy="LOCAL",
                system_kind="updates",
                system_kwargs=(("update_prob", 0.1),),
            ),
            components=(
                Component(
                    name="staleness",
                    description="",
                    variants=(
                        Variant(
                            name="stale",
                            system_kind="stale",
                            system_kwargs=(("refresh_interval", 25.0),),
                        ),
                    ),
                ),
            ),
        )
        assert from_dict(StudySpec, to_dict(spec)) == spec

    def test_future_format_version_rejected(self):
        data = to_dict(tiny_spec())
        data["format_version"] = StudySpec.format_version + 1
        with pytest.raises(ValueError, match="format_version"):
            from_dict(StudySpec, data)

    def test_json_lists_refreeze_to_tuples(self):
        spec = tiny_spec(
            components=(
                Component(
                    name="knob",
                    description="",
                    variants=(
                        Variant(
                            name="mpl",
                            config_patches=(("site.mpl", 9),),
                        ),
                    ),
                ),
            ),
        )
        # Through actual JSON text, so tuples become lists and back.
        data = json.loads(json.dumps(to_dict(spec)))
        assert from_dict(StudySpec, data) == spec
