"""Discrete-event simulation kernel (the DISS-equivalent substrate).

Exports the pieces model code actually touches:

* :class:`Simulator` — clock, event loop, process launcher, RNG streams.
* :class:`Hold`, :class:`Passivate`, :class:`WaitFor` — process commands.
* :class:`FCFSServer`, :class:`PSServer`, :class:`DelayStation` — resources.
* :class:`Tally`, :class:`TimeWeighted` — statistics monitors.
* :class:`RandomStreams` and :func:`bernoulli` — named random streams.
* :func:`batch_means`, :func:`mean_and_ci` — interval estimates.
"""

from repro.sim.engine import Simulator
from repro.sim.errors import (
    MonitorError,
    ProcessError,
    ResourceError,
    SchedulingError,
    SimulationError,
)
from repro.sim.monitor import Tally, TimeWeighted
from repro.sim.process import Hold, Passivate, Process, ProcessState, WaitFor
from repro.sim.resources import DelayStation, FCFSServer, PSServer, Server
from repro.sim.rng import RandomStreams, bernoulli
from repro.sim.stats import IntervalEstimate, batch_means, mean_and_ci

__all__ = [
    "Simulator",
    "SimulationError",
    "SchedulingError",
    "ProcessError",
    "ResourceError",
    "MonitorError",
    "Tally",
    "TimeWeighted",
    "Hold",
    "Passivate",
    "WaitFor",
    "Process",
    "ProcessState",
    "Server",
    "FCFSServer",
    "PSServer",
    "DelayStation",
    "RandomStreams",
    "bernoulli",
    "IntervalEstimate",
    "batch_means",
    "mean_and_ci",
]
