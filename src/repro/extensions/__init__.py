"""Extensions: the paper's §6.2 future work with life cycles of their own.

* :class:`MigratingDatabase` — query migration between read cycles.
* :class:`SubqueryDatabase` — distributed queries as dynamically
  allocated subquery pipelines with data moves (the paper's §6.2 goal).

The paper's other relaxed assumptions — stale load information, update
queries, heterogeneous CPU speeds and partial replication — are
mechanisms of :class:`~repro.model.system.DistributedDatabase` itself,
set by its keyword-only constructor parameters.
"""

from repro.extensions.migration import MigratingDatabase
from repro.extensions.subqueries import SubqueryDatabase

__all__ = [
    "MigratingDatabase",
    "SubqueryDatabase",
]
