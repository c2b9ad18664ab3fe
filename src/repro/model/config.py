"""Declarative configuration of the distributed database system model.

The dataclasses here mirror the paper's parameter tables:

* Table 1 (DB-site parameters): ``num_disks``, ``disk_time``, ``mpl``,
  ``think_time``, ``class_prob`` → :class:`SiteSpec` / :class:`SystemConfig`.
* Table 2 (class parameters): ``page_cpu_time``, ``num_reads``,
  ``result_fraction``, ``query_size`` → :class:`QueryClassSpec`.
* Table 3 (communications): ``msg_time``, ``page_size`` → :class:`NetworkSpec`.
* Table 7 (simulation settings): the defaults produced by
  :func:`paper_defaults`.

Everything is frozen so a config can be shared between replications without
aliasing bugs; use :func:`dataclasses.replace` or :func:`set_config_parameter`
to derive variants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional, Tuple


class ConfigError(ValueError):
    """An invalid model configuration."""


@dataclass(frozen=True)
class QueryClassSpec:
    """Workload parameters of one query class (the paper's Table 2).

    Attributes:
        name: Class label ("io" / "cpu" in the paper's experiments).
        page_cpu_time: Mean CPU time to process one page read from disk.
        num_reads: Mean number of disk pages read (cycles through the
            disk+CPU service centers).
        result_fraction: Mean result pages as a fraction of pages read;
            used by the linear message-cost model.
        query_size: Bytes needed to describe the query (sent when the
            query is initiated remotely); used by the linear cost model.
    """

    name: str
    page_cpu_time: float
    num_reads: float
    result_fraction: float = 0.2
    query_size: int = 256

    def __post_init__(self) -> None:
        if self.page_cpu_time <= 0:
            raise ConfigError(f"class {self.name!r}: page_cpu_time must be > 0")
        if self.num_reads < 1:
            raise ConfigError(f"class {self.name!r}: num_reads must be >= 1")
        if not 0 <= self.result_fraction:
            raise ConfigError(f"class {self.name!r}: result_fraction must be >= 0")
        if self.query_size < 0:
            raise ConfigError(f"class {self.name!r}: query_size must be >= 0")

    def mean_service_demand(self, disk_time: float) -> float:
        """Expected total service demand of a class member."""
        return self.num_reads * (disk_time + self.page_cpu_time)


@dataclass(frozen=True)
class SiteSpec:
    """Hardware and workload parameters of one (homogeneous) DB site."""

    num_disks: int = 2
    disk_time: float = 1.0
    disk_time_dev: float = 0.20
    mpl: int = 20
    think_time: float = 350.0

    def __post_init__(self) -> None:
        if self.num_disks < 1:
            raise ConfigError("num_disks must be >= 1")
        if self.disk_time <= 0:
            raise ConfigError("disk_time must be > 0")
        if not 0 <= self.disk_time_dev <= 1:
            raise ConfigError("disk_time_dev must be in [0, 1]")
        if self.mpl < 1:
            raise ConfigError("mpl must be >= 1")
        if self.think_time < 0:
            raise ConfigError("think_time must be >= 0")

    @property
    def io_demand_per_disk(self) -> float:
        """The paper's per-disk I/O demand used to classify queries."""
        return self.disk_time / self.num_disks


@dataclass(frozen=True)
class NetworkSpec:
    """Token-ring communications parameters.

    The paper's simulation study folds ``result_fraction``, ``query_size``
    and ``msg_time`` into one constant, ``msg_length`` — the time to move a
    query (or its results) across the subnet.  Setting ``msg_length`` to
    ``None`` activates the full linear cost model instead:
    ``transfer = msg_time * bytes`` with query/result sizes taken from the
    class spec and ``page_size``.
    """

    msg_length: Optional[float] = 1.0
    msg_time: float = 0.0005
    page_size: int = 4096
    #: Subnet topology: "ring" (the paper's shared token ring) or "mesh"
    #: (a full point-to-point mesh; see repro.model.subnet).
    subnet_kind: str = "ring"

    def __post_init__(self) -> None:
        if self.msg_length is not None and self.msg_length < 0:
            raise ConfigError("msg_length must be >= 0")
        if self.msg_time < 0:
            raise ConfigError("msg_time must be >= 0")
        if self.page_size < 1:
            raise ConfigError("page_size must be >= 1")
        if self.subnet_kind not in ("ring", "mesh"):
            raise ConfigError(
                f"subnet_kind must be 'ring' or 'mesh', got {self.subnet_kind!r}"
            )


#: Disk-subsystem organizations (ablation A1 in DESIGN.md).
DISK_PER_DISK = "per_disk"  # one FCFS queue per disk, uniform random routing
DISK_SHARED = "shared"  # one queue feeding all disks (M/G/c style)

_DISK_ORGANIZATIONS = (DISK_PER_DISK, DISK_SHARED)


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated system.

    Attributes:
        num_sites: Number of (identical) DB sites.
        site: Per-site hardware/workload parameters.
        classes: The query classes (the paper uses exactly two, I/O-bound
            then CPU-bound, but any number is supported).
        class_probs: Probability a new query belongs to each class; must
            sum to 1.
        network: Communications subnet parameters.
        disk_organization: ``"per_disk"`` (paper's Figure 2: separate disk
            boxes, a read goes to a uniformly chosen disk) or ``"shared"``
            (single queue feeding all disks).
        integer_reads: Round each query's sampled read count to an integer
            number of cycles (the optimizer estimate keeps the raw value).
    """

    num_sites: int = 6
    site: SiteSpec = dataclasses.field(default_factory=SiteSpec)
    classes: Tuple[QueryClassSpec, ...] = ()
    class_probs: Tuple[float, ...] = ()
    network: NetworkSpec = dataclasses.field(default_factory=NetworkSpec)
    disk_organization: str = DISK_PER_DISK
    integer_reads: bool = True

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ConfigError("num_sites must be >= 1")
        if not self.classes:
            raise ConfigError("at least one query class is required")
        if len(self.class_probs) != len(self.classes):
            raise ConfigError(
                f"{len(self.class_probs)} class probabilities for "
                f"{len(self.classes)} classes"
            )
        if any(p < 0 for p in self.class_probs):
            raise ConfigError("class probabilities must be >= 0")
        if abs(sum(self.class_probs) - 1.0) > 1e-9:
            raise ConfigError(
                f"class probabilities must sum to 1, got {sum(self.class_probs)}"
            )
        if self.disk_organization not in _DISK_ORGANIZATIONS:
            raise ConfigError(
                f"disk_organization must be one of {_DISK_ORGANIZATIONS}, "
                f"got {self.disk_organization!r}"
            )
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate class names: {names}")

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_index(self, name: str) -> int:
        for index, spec in enumerate(self.classes):
            if spec.name == name:
                return index
        raise KeyError(f"no query class named {name!r}")

    def is_io_bound(self, page_cpu_time: float) -> bool:
        """The paper's classification rule (BNQRD, §4.2).

        A query is I/O-bound iff its per-disk I/O demand exceeds its CPU
        demand per page: ``disk_time / num_disks > page_cpu_time``.
        """
        return self.site.io_demand_per_disk > page_cpu_time

    def mean_query_service_demand(self) -> float:
        """Workload-average total service demand of a query."""
        return sum(
            p * spec.mean_service_demand(self.site.disk_time)
            for p, spec in zip(self.class_probs, self.classes)
        )

    def with_site(self, **changes) -> "SystemConfig":
        """Derive a config with site-level parameters replaced."""
        return dataclasses.replace(self, site=dataclasses.replace(self.site, **changes))

    def with_network(self, **changes) -> "SystemConfig":
        """Derive a config with network parameters replaced."""
        return dataclasses.replace(
            self, network=dataclasses.replace(self.network, **changes)
        )


def paper_classes(
    io_cpu_time: float = 0.05, cpu_cpu_time: float = 1.0, num_reads: float = 20.0
) -> Tuple[QueryClassSpec, QueryClassSpec]:
    """The paper's two query classes (Table 7 defaults)."""
    return (
        QueryClassSpec("io", page_cpu_time=io_cpu_time, num_reads=num_reads),
        QueryClassSpec("cpu", page_cpu_time=cpu_cpu_time, num_reads=num_reads),
    )


def paper_defaults(
    num_sites: int = 6,
    mpl: int = 20,
    think_time: float = 350.0,
    class_io_prob: float = 0.5,
    io_cpu_time: float = 0.05,
    cpu_cpu_time: float = 1.0,
    msg_length: Optional[float] = 1.0,
) -> SystemConfig:
    """Table 7's default parameter settings for the simulation study.

    All arguments default to the values the paper uses "when not being
    varied": 6 sites, mpl 20, think 350, class_io_prob 0.5, per-page CPU
    means 0.05 (I/O-bound class) and 1.0 (CPU-bound class), msg_length 1.
    """
    return SystemConfig(
        num_sites=num_sites,
        site=SiteSpec(
            num_disks=2,
            disk_time=1.0,
            disk_time_dev=0.20,
            mpl=mpl,
            think_time=think_time,
        ),
        classes=paper_classes(io_cpu_time, cpu_cpu_time),
        class_probs=(class_io_prob, 1.0 - class_io_prob),
        network=NetworkSpec(msg_length=msg_length),
    )


def set_config_parameter(
    config: SystemConfig, dotted_path: str, value: Any
) -> SystemConfig:
    """Return a copy of *config* with the dotted-path field replaced.

    Supports one level of nesting (``section.field``) over the frozen
    dataclass structure; top-level fields use the bare name
    (``"num_sites"``, ``"site.mpl"``, ``"network.msg_length"``, ...).
    """
    parts = dotted_path.split(".")
    if len(parts) == 1:
        field = parts[0]
        if field not in {f.name for f in dataclasses.fields(config)}:
            raise KeyError(f"SystemConfig has no field {field!r}")
        return dataclasses.replace(config, **{field: value})
    if len(parts) == 2:
        section_name, field = parts
        if section_name not in {f.name for f in dataclasses.fields(config)}:
            raise KeyError(f"SystemConfig has no section {section_name!r}")
        section = getattr(config, section_name)
        if not dataclasses.is_dataclass(section):
            raise KeyError(f"{section_name!r} is not a nested config section")
        if field not in {f.name for f in dataclasses.fields(section)}:
            raise KeyError(f"{section_name} has no field {field!r}")
        return dataclasses.replace(
            config, **{section_name: dataclasses.replace(section, **{field: value})}
        )
    raise KeyError(f"unsupported parameter path {dotted_path!r}")


__all__ = [
    "ConfigError",
    "QueryClassSpec",
    "SiteSpec",
    "NetworkSpec",
    "SystemConfig",
    "DISK_PER_DISK",
    "DISK_SHARED",
    "paper_classes",
    "paper_defaults",
    "set_config_parameter",
]
