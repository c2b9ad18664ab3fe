"""The distributed database system model (the paper's §2).

Key entry points:

* :func:`paper_defaults` — Table 7's parameter settings.
* :class:`DistributedDatabase` — the assembled system; ``run()`` it.  Its
  keyword-only mechanisms relax the paper's assumptions (stale load
  information, update queries, CPU speeds, a :class:`ReplicationMap`).
* :class:`SystemConfig` and friends — declarative configuration.
"""

from repro.model.config import (
    DISK_PER_DISK,
    DISK_SHARED,
    ConfigError,
    NetworkSpec,
    QueryClassSpec,
    SiteSpec,
    SystemConfig,
    paper_classes,
    paper_defaults,
)
from repro.model.balance import BalanceMonitor, BalanceSummary
from repro.model.loadboard import FrozenLoadView, LoadBoard, LoadView
from repro.model.metrics import MetricsCollector, SystemResults, summarize
from repro.model.query import Query, make_query
from repro.model.replication import ReplicationMap
from repro.model.ring import Message, TokenRing
from repro.model.site import DBSite
from repro.model.subnet import (
    SUBNET_MESH,
    SUBNET_RING,
    PointToPointNetwork,
    Subnet,
    build_subnet,
)
from repro.model.system import DistributedDatabase
from repro.model.workload import WorkloadGenerator

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
    "LoadView",
    "BalanceMonitor",
    "BalanceSummary",
    "LoadBoard",
    "FrozenLoadView",
    "MetricsCollector",
    "SystemResults",
    "summarize",
    "Query",
    "make_query",
    "ReplicationMap",
    "Message",
    "TokenRing",
    "Subnet",
    "PointToPointNetwork",
    "SUBNET_RING",
    "SUBNET_MESH",
    "build_subnet",
    "DBSite",
    "DistributedDatabase",
    "WorkloadGenerator",
]
