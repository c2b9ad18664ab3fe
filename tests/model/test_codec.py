"""The one codec (``repro.codec``): round trips and field coverage.

Every dataclass the package serializes must survive
``from_dict(cls, json.loads(json.dumps(to_dict(x)))) == x`` for any valid
instance, and every field of the classes that feed cache keys must show
up in the encoding.  Instances are drawn from each field's annotation;
the few fields whose validation the generic draw would almost never
satisfy get explicit strategies below.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, Dict, Union

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.ablation.spec import BaselineRun, Component, StudySpec, Variant
from repro.codec import OMIT_DEFAULT, ConfigError, from_dict, to_dict
from repro.experiments.cache import cache_key
from repro.experiments.common import AveragedResults
from repro.experiments.runconfig import RunSettings
from repro.faults.errors import FaultError
from repro.faults.plan import FaultPlan, MessageFaults, SiteOutage
from repro.model.config import (
    NetworkSpec,
    QueryClassSpec,
    SiteSpec,
    SystemConfig,
    paper_defaults,
)
from repro.model.metrics import SystemResults
from repro.telemetry.events import EVENT_TYPES, AnyEvent
from repro.telemetry.sampler import TimelineSample
from repro.telemetry.tracing.decisions import DecisionRecord
from repro.telemetry.tracing.spans import Span
from repro.workloads.arrivals import MMPP, ArrivalSpec, DiurnalRate, PoissonOpen, TraceDriven
from repro.workloads.errors import WorkloadError
from repro.workloads.spec import WorkloadSpec

#: The classes serialized on their own; every dataclass reachable from
#: their fields is serialized as part of them.
ROOTS = (
    SystemConfig,
    FaultPlan,
    WorkloadSpec,
    SystemResults,
    AveragedResults,
    RunSettings,
    StudySpec,
    TimelineSample,
    Span,
    DecisionRecord,
    *EVENT_TYPES,
)

#: The classes whose encodings are hashed into result-cache keys.
CACHE_KEY_ROOTS = (SystemConfig, FaultPlan, WorkloadSpec)

FINITE = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
NAMES = st.text(alphabet="abcdefghij", min_size=1, max_size=6)


def reachable(roots) -> list:
    """Every dataclass reachable from *roots* through field annotations."""
    seen: list = []

    def visit(hint: Any) -> None:
        if isinstance(hint, type) and dataclasses.is_dataclass(hint):
            if hint in seen:
                return
            seen.append(hint)
            for spec in dataclasses.fields(hint):
                visit(typing.get_type_hints(hint)[spec.name])
        for arg in typing.get_args(hint):
            visit(arg)

    for root in roots:
        visit(root)
    return seen


def _system_configs(draw):
    classes = draw(
        st.lists(instances(QueryClassSpec), min_size=1, max_size=3, unique_by=lambda c: c.name)
    )
    return SystemConfig(
        num_sites=draw(st.integers(1, 8)),
        site=draw(instances(SiteSpec)),
        classes=tuple(classes),
        class_probs=(1.0 / len(classes),) * len(classes),
        network=draw(instances(NetworkSpec)),
        disk_organization=draw(st.sampled_from(["per_disk", "shared"])),
        integer_reads=draw(st.booleans()),
    )


def _trace_arrivals(draw):
    times = sorted(draw(st.lists(FINITE, min_size=1, max_size=4)))
    return tuple((time, draw(st.integers(0, 5))) for time in times)


def _mmpp(draw):
    phases = draw(st.integers(2, 4))
    rates = draw(st.lists(st.floats(0.01, 10.0), min_size=phases, max_size=phases))
    holding = draw(st.lists(st.floats(0.1, 100.0), min_size=phases, max_size=phases))
    return MMPP(rates=tuple(rates), mean_holding=tuple(holding))


VARIANT_KINDS = st.sampled_from(
    [(None, ()), ("stale", ()), ("stale", (("refresh_interval", 25.0),))]
)
PATCHES = st.lists(
    st.sampled_from(
        [("site.mpl", 9), ("site.think_time", 300.0), ("network.msg_length", None)]
    ),
    max_size=2,
).map(tuple)


def _variants(draw):
    kind, kwargs = draw(VARIANT_KINDS)
    overrides = dict(
        policy=draw(st.sampled_from([None, "LOCAL", "BNQ"])),
        system_kind=kind,
        system_kwargs=kwargs,
        config_patches=draw(PATCHES),
        faults=draw(st.none() | instances(FaultPlan)),
        workload=draw(st.none() | instances(WorkloadSpec)),
    )
    if not any(overrides.values()):
        overrides["policy"] = "LOCAL"  # a variant must override something
    return Variant(name=draw(NAMES), **overrides)


#: Strategies for classes whose validation spans several fields.
CLASS_STRATEGIES = {
    SystemConfig: st.composite(_system_configs)(),
    MMPP: st.composite(_mmpp)(),
    TraceDriven: st.composite(_trace_arrivals)().map(lambda a: TraceDriven(arrivals=a)),
    Variant: st.composite(_variants)(),
    BaselineRun: st.builds(BaselineRun, policy=st.sampled_from(["LERT", "BNQ"])),
    Component: st.builds(
        Component,
        name=NAMES,
        description=NAMES,
        variants=st.lists(
            st.composite(_variants)(), min_size=1, max_size=2, unique_by=lambda v: v.name
        ).map(tuple),
    ),
    StudySpec: st.builds(
        StudySpec,
        name=NAMES,
        title=NAMES,
        description=NAMES,
        metric=st.sampled_from(["response_time", "fairness"]),
        config=st.just(paper_defaults()),
        baseline=st.builds(BaselineRun, policy=st.just("LERT")),
        settings=st.builds(
            RunSettings,
            warmup=FINITE,
            duration=st.floats(1.0, 1e5),
            replications=st.integers(1, 3),
            base_seed=st.integers(0, 2**31),
            faults=st.none() | st.builds(FaultPlan, max_retries=st.integers(0, 5)),
            workload=st.none(),
        ),
        components=st.lists(
            st.builds(
                Component,
                name=NAMES,
                description=NAMES,
                variants=st.composite(_variants)().map(lambda v: (v,)),
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda c: c.name,
        ).map(tuple),
    ),
}

#: Strategies for single fields with a narrow valid range.
FIELD_STRATEGIES = {
    ("SiteSpec", "disk_time_dev"): st.floats(0.0, 1.0),
    ("QueryClassSpec", "num_reads"): st.floats(1.0, 100.0),
    ("NetworkSpec", "subnet_kind"): st.sampled_from(["ring", "mesh"]),
    ("MessageFaults", "loss_prob"): st.floats(0.0, 0.99),
    ("FaultPlan", "backoff_factor"): st.floats(1.0, 10.0),
    ("DiurnalRate", "amplitude"): st.floats(0.0, 1.0),
    ("DiurnalRate", "per_site"): st.just(True),
}


def values(hint: Any, owner: str = "", name: str = "") -> st.SearchStrategy:
    """Valid-looking values of one annotation."""
    if (owner, name) in FIELD_STRATEGIES:
        return FIELD_STRATEGIES[(owner, name)]
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return instances(hint)
    if hint is float:
        return st.floats(min_value=0.01, max_value=1e6, allow_nan=False)
    if hint is int:
        return st.integers(min_value=1, max_value=50)
    if hint is bool:
        return st.booleans()
    if hint is str:
        return NAMES
    if hint is Any:
        return st.integers() | FINITE | NAMES
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        return st.one_of([st.none() if arg is type(None) else values(arg) for arg in args])
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return st.lists(values(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*(values(arg) for arg in args))
    raise AssertionError(f"no strategy for {hint!r}")


def _build(cls, draw):
    hints = typing.get_type_hints(cls)
    kwargs = {
        spec.name: draw(values(hints[spec.name], cls.__name__, spec.name))
        for spec in dataclasses.fields(cls)
    }
    try:
        return cls(**kwargs)
    except (ValueError, FaultError, WorkloadError):
        reject()


def instances(cls) -> st.SearchStrategy:
    """Valid instances of the dataclass *cls*."""
    if cls in CLASS_STRATEGIES:
        return CLASS_STRATEGIES[cls]
    return st.composite(lambda draw: _build(cls, draw))()


def test_every_serialized_class_has_a_strategy():
    for cls in reachable(ROOTS):
        hints = typing.get_type_hints(cls)
        for spec in dataclasses.fields(cls):
            values(hints[spec.name], cls.__name__, spec.name)


ROUND_TRIP = settings(
    deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("cls", reachable(ROOTS), ids=lambda cls: cls.__name__)
@ROUND_TRIP
@given(data=st.data())
def test_json_round_trip_is_identity(cls, data):
    obj = data.draw(instances(cls))
    decoded = from_dict(cls, json.loads(json.dumps(to_dict(obj))))
    assert decoded == obj
    assert type(decoded) is type(obj)


@ROUND_TRIP
@given(data=st.data())
def test_tagged_unions_round_trip(data):
    event = data.draw(st.one_of([instances(cls) for cls in EVENT_TYPES]))
    assert from_dict(AnyEvent, json.loads(json.dumps(to_dict(event)))) == event
    arrivals = data.draw(st.one_of([instances(cls) for cls in typing.get_args(ArrivalSpec)]))
    assert from_dict(ArrivalSpec, json.loads(json.dumps(to_dict(arrivals)))) == arrivals


@pytest.mark.parametrize("cls", reachable(CACHE_KEY_ROOTS), ids=lambda cls: cls.__name__)
@ROUND_TRIP
@given(data=st.data())
def test_every_cache_key_field_is_encoded(cls, data):
    """What RL006 checked by reading source: no field escapes the key."""
    obj = data.draw(instances(cls))
    encoded = to_dict(obj)
    for spec in dataclasses.fields(cls):
        omitted = spec.metadata == OMIT_DEFAULT and getattr(obj, spec.name) == spec.default
        assert (spec.name in encoded) != omitted, spec.name


def test_a_new_field_is_encoded_without_serializer_code():
    fields = [(spec.name, spec.type, spec) for spec in dataclasses.fields(SiteSpec)]
    grown = dataclasses.make_dataclass(
        "SiteSpec", fields + [("cache_size", float, dataclasses.field(default=64.0))],
        frozen=True, namespace={"__module__": SiteSpec.__module__},
    )
    encoded = to_dict(grown())
    assert encoded == {**to_dict(SiteSpec()), "cache_size": 64.0}
    assert from_dict(grown, encoded) == grown()


def test_int_valued_floats_encode_as_floats():
    """Equal configs, equal encodings: 350 and 350.0 are one think time."""
    config = paper_defaults()
    widened = dataclasses.replace(config, site=dataclasses.replace(config.site, think_time=350))
    assert widened == config
    assert json.dumps(to_dict(widened)) == json.dumps(to_dict(config))
    plan = FaultPlan(site_outages=(SiteOutage(site=0, at=100, duration=50),))
    assert to_dict(plan)["site_outages"] == [{"site": 0, "at": 100.0, "duration": 50.0}]


def test_equal_inputs_share_a_cache_key():
    config = paper_defaults()
    widened = dataclasses.replace(config, site=dataclasses.replace(config.site, think_time=350))
    run = dict(seed=1, warmup=100.0, duration=1000.0)
    assert cache_key(widened, "LERT", **run) == cache_key(config, "LERT", **run)
    # What a --faults file with "at": 100 and one with "at": 100.0 decode to.
    plans = [
        FaultPlan(site_outages=(SiteOutage(site=0, at=at, duration=50.0),))
        for at in (100, 100.0)
    ]
    assert plans[0] == plans[1]
    keys = {cache_key(config, "LERT", faults=plan, **run) for plan in plans}
    assert len(keys) == 1


def test_omitted_fields_are_left_out_only_at_their_default():
    variant = Variant(name="v", policy="BNQ")
    assert to_dict(variant) == {"name": "v", "policy": "BNQ"}
    faulted = to_dict(RunSettings(faults=FaultPlan(messages=MessageFaults(loss_prob=0.1))))
    assert "faults" in faulted and "workload" not in faulted


def test_absent_keys_take_their_field_defaults():
    # Hand-written spec files may leave out any field that has a default.
    workload = from_dict(WorkloadSpec, {"arrivals": {"kind": "poisson", "rate": 0.1}})
    assert workload == WorkloadSpec(arrivals=PoissonOpen(rate=0.1))
    plan = from_dict(FaultPlan, {"site_outages": [{"site": 0, "at": 100, "duration": 5}]})
    assert plan == FaultPlan(site_outages=(SiteOutage(site=0, at=100.0, duration=5.0),))
    # An absent version reads as the current one.
    config = {k: v for k, v in to_dict(paper_defaults()).items() if k != "format_version"}
    assert from_dict(SystemConfig, config) == paper_defaults()


@pytest.mark.parametrize(
    "cls,data,message",
    [
        (QueryClassSpec, {"name": "io", "num_reads": 8}, "missing field 'page_cpu_time'"),
        (SystemConfig, {k: v for k, v in to_dict(paper_defaults()).items() if k != "site"},
         "missing field 'site'"),
        (SiteSpec, {**to_dict(SiteSpec()), "cache": 1}, "unknown field"),
        (SystemConfig, {**to_dict(paper_defaults()), "format_version": 2}, "format_version"),
        (SiteSpec, {**to_dict(SiteSpec()), "mpl": 2.5}, "SiteSpec.mpl: expected an integer"),
        (SiteSpec, {**to_dict(SiteSpec()), "think_time": "350"}, "expected a number"),
        (SystemConfig, {**to_dict(paper_defaults()), "integer_reads": 1}, "expected a bool"),
        (SystemConfig, {**to_dict(paper_defaults()), "class_probs": 0.5}, "expected a list"),
        (ArrivalSpec, {"kind": "martian"}, "unknown kind tag 'martian'"),
        (DiurnalRate, {"kind": "mmpp"}, "unsupported DiurnalRate kind"),
        (SiteSpec, [], "expected a SiteSpec object"),
    ],
)
def test_decoding_rejects_with_config_error(cls, data, message):
    with pytest.raises(ConfigError, match=message):
        from_dict(cls, data)


def test_unsupported_annotation_rejected():
    @dataclasses.dataclass(frozen=True)
    class Loose:
        mapping: Dict[str, int]

    with pytest.raises(ConfigError, match="unsupported annotation"):
        to_dict(Loose(mapping={}))
    with pytest.raises(ConfigError, match="unsupported annotation"):
        from_dict(Loose, {"mapping": {}})
