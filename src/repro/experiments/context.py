"""The one typed execution-context object every experiment accepts.

Before this module, every experiment function re-spelled the execution
options as untyped keyword arguments (``jobs: int = 1, cache=None``),
which meant N copies of the same plumbing and no single place to add an
option.  :class:`StudyContext` is that place: it bundles *how* to run —
worker processes, result cache, progress callback — while the experiment
arguments keep saying *what* to run.  The name comes from the ablation
study harness (:mod:`repro.ablation`), whose studies were the forcing
function for unifying the plumbing; plain table regenerations use the
same object.

A context never affects results: ``jobs`` and ``cache`` are
bit-for-bit-neutral by the parallel runner's contract, and ``progress``
is display-only.  The default ``StudyContext()`` is serial and uncached —
exactly what the old default kwargs meant.

Typical use::

    from repro.experiments import StudyContext, table8
    from repro.experiments.cache import ResultCache, default_cache_dir

    ctx = StudyContext(jobs=4, cache=ResultCache(default_cache_dir()))
    result = table8.run_experiment(settings, context=ctx)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # kept a leaf: the parallel runner imports this module
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import ProgressCallback


@dataclass(frozen=True)
class StudyContext:
    """How to execute a batch of simulation runs (never *what* to run).

    Attributes:
        jobs: Worker processes (1 = serial in-process; 0 or negative =
            all cores).  Results are bit-identical regardless.
        cache: Optional content-addressed result cache
            (:class:`~repro.experiments.cache.ResultCache`); cached runs
            are answered from disk and fresh results written back.
        progress: Optional live progress callback (see
            :class:`~repro.experiments.parallel.RunProgress`).  Display
            only.
    """

    jobs: int = 1
    cache: Optional["ResultCache"] = None
    progress: Optional["ProgressCallback"] = None

    def with_cache(self, cache: Optional["ResultCache"]) -> "StudyContext":
        """This context writing to (and reading from) *cache*."""
        return replace(self, cache=cache)

    def with_jobs(self, jobs: int) -> "StudyContext":
        """This context fanning out over *jobs* workers."""
        return replace(self, jobs=jobs)


#: The default context: serial, uncached, silent.
SERIAL = StudyContext()

__all__ = ["StudyContext", "SERIAL"]
