"""LERT — Least Estimated Response Time (paper §4.3, Figure 6).

The second information-based heuristic: estimate the query's response time
at every site from its optimizer-provided demands and the per-site counts of
competing I/O- and CPU-bound queries, then pick the minimum.  Cost function
(Figure 6, reproduced verbatim)::

    cpu_time := Num_Reads(q) * Page_CPU_Time(q);
    io_time  := Num_Reads(q) * disk_time;
    if s = arrival_site then net_time := 0.0
    else net_time := Transfer_Time(q) + Return_Time(q);
    cpu_wait := cpu_time * Num_CPU_Queries(s);
    io_wait  := io_time * (Num_IO_Queries(s) / num_disks);
    SiteCost := cpu_time + cpu_wait + io_time + io_wait + net_time;

The paper's three stated approximations are inherited as-is: a query only
competes with same-boundness queries per resource; both CPU and disks are
treated as PS; and site populations are assumed frozen for the query's
duration.  LERT is the only paper policy that weighs the communication cost
of going remote, which is why it pulls ahead of BNQRD as ``msg_length``
grows (§5.2 and the msg-length ablation bench).
"""

from __future__ import annotations

from repro.model.query import Query
from repro.policies.base import CostBasedPolicy


class LERTPolicy(CostBasedPolicy):
    """Route to the site with the least estimated response time."""

    name = "LERT"
    #: Whether ``cpu_time`` is divided by the candidate site's CPU speed.
    speed_aware = False

    def site_cost(self, query: Query, site: int) -> float:
        # Figure 6's cost function reads the arrival site (to zero out the
        # network term) and the optimizer's transfer estimates through the
        # active view, so fault masking applies transparently.
        view = self._view
        config = view.config
        site_spec = config.site
        cpu_time = query.estimated_cpu_demand
        if self.speed_aware:
            cpu_time /= view.cpu_speed(site)
        io_time = query.estimated_io_demand(site_spec.disk_time)
        if site == view.arrival_site:
            net_time = 0.0
        else:
            net_time = view.estimated_transfer_time(
                query
            ) + view.estimated_return_time(query)
        cpu_wait = cpu_time * self.loads.num_cpu_queries(site)
        io_wait = io_time * (self.loads.num_io_queries(site) / site_spec.num_disks)
        return cpu_time + cpu_wait + io_time + io_wait + net_time


class HeterogeneousLERTPolicy(LERTPolicy):
    """LERT with per-site CPU speed awareness (``LERT-HET``).

    Figure 6's ``cpu_time`` and ``cpu_wait`` terms are divided by the
    candidate site's CPU speed factor — the natural generalization when
    the optimizer's CPU estimates are expressed in baseline-CPU seconds.
    On a homogeneous system every speed is 1.0 and it decides exactly as
    LERT does.
    """

    name = "LERT-HET"
    speed_aware = True


__all__ = ["LERTPolicy", "HeterogeneousLERTPolicy"]
