"""Experiment harness: one module per reproduced table (DESIGN.md §3).

* E1/E2 — :mod:`repro.experiments.table5`, :mod:`repro.experiments.table6`
  (analytic, exact MVA).
* E3–E7 — :mod:`repro.experiments.table8` … :mod:`repro.experiments.table12`
  (simulation sweeps).
* E8 — :mod:`repro.experiments.msg_sensitivity`.

Each module exposes ``run_experiment(...)`` returning structured results
and ``format_table(...)`` rendering paper-style rows.  The front door is
the experiment registry (:mod:`repro.experiments.registry`): every
experiment — tables, extensions, ablations, committed studies — is an
:class:`~repro.experiments.registry.Experiment` with a uniform
``run(settings, context)``, and the ``repro-experiments`` CLI generates
its subcommands from it.  Execution options (workers, cache, progress)
travel in one typed :class:`~repro.experiments.context.StudyContext`.
"""

from repro.experiments import (
    ablations,
    validation,
    msg_sensitivity,
    table5,
    table6,
    table8,
    table9,
    table10,
    table11,
    table12,
)
from repro.experiments.context import SERIAL, StudyContext
from repro.experiments.registry import (
    Experiment,
    all_experiments,
    experiment_names,
    get_experiment,
)
from repro.experiments.cache import (
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.experiments.common import (
    AveragedResults,
    average_results,
    policy_grid,
    simulate,
)
from repro.experiments.parallel import (
    ReplicationTask,
    resolve_jobs,
    run_tasks,
    simulate_many,
)
from repro.experiments.report import (
    TextTable,
    generate_report,
    improvement_pct,
    report_sections,
    write_report,
)
from repro.experiments.runconfig import (
    PAPER,
    QUICK,
    SCALES,
    STANDARD,
    RunSettings,
    settings_for,
)

__all__ = [
    "ablations",
    "validation",
    "table5",
    "table6",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "msg_sensitivity",
    "AveragedResults",
    "TextTable",
    "average_results",
    "improvement_pct",
    "policy_grid",
    "simulate",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "ReplicationTask",
    "resolve_jobs",
    "run_tasks",
    "simulate_many",
    "RunSettings",
    "QUICK",
    "STANDARD",
    "PAPER",
    "SCALES",
    "settings_for",
    "generate_report",
    "report_sections",
    "write_report",
    "StudyContext",
    "SERIAL",
    "Experiment",
    "all_experiments",
    "experiment_names",
    "get_experiment",
]
