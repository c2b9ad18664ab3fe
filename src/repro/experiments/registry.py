"""The Experiment protocol and registry — one front door for every table.

Before this module, each of the paper-table reproductions
(``table5.py`` … ``table12.py``, ``msg_sensitivity.py``, ``failure.py``,
``open_system.py``, ``validation.py``) and each ablation sweep exposed
its own ``main(settings, *, jobs=1, cache=None)`` spelling, and the CLI
hard-coded two parallel dispatch dicts.  The registry collapses those
entry points behind one shape:

* :class:`Experiment` — name, section title, description, whether the
  experiment is analytic (no simulation, ignores run settings), and a
  ``run(settings, context)`` method that returns the rendered table.
* :func:`all_experiments` / :func:`get_experiment` /
  :func:`experiment_names` — lookup, in stable report order.

The ``repro-experiments`` CLI generates its subcommands from
:func:`experiment_names`, and ``repro-experiments report`` walks
:func:`all_experiments` — registering an experiment here is the single
step that wires it into both.

The registry imports every experiment module, and those modules import
:mod:`repro.experiments.report` for :class:`~repro.experiments.report.TextTable`,
so the report module must import *this* one lazily (it does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.experiments.context import StudyContext
from repro.experiments.runconfig import STANDARD, RunSettings

#: An experiment body: run at *settings* under *context*, return the
#: rendered table text.
ExperimentRunner = Callable[[RunSettings, StudyContext], str]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: what it's called and how to run it.

    Attributes:
        name: CLI subcommand and registry key (``"table8"``,
            ``"ablation-stale"``, ...).
        title: Section heading used in generated reports.
        description: One-line help string shown by ``repro-experiments
            list`` and the CLI ``--help``.
        analytic: True when the experiment needs no simulation — it
            ignores run settings and the execution context, never touches
            the result cache, and is excluded from ``--scale`` semantics.
        runner: The body; call through :meth:`run`.
    """

    name: str
    title: str
    description: str
    analytic: bool = False
    runner: ExperimentRunner = field(repr=False, default=None)  # type: ignore[assignment]

    def run(
        self,
        settings: RunSettings = STANDARD,
        context: StudyContext = StudyContext(),
    ) -> str:
        """Execute the experiment and return its rendered table."""
        return self.runner(settings, context)


def _table_runner(module_name: str) -> ExperimentRunner:
    """Runner for the uniform simulation modules.

    Each has ``run_experiment(settings, *, context)`` and
    ``format_table(result)``; the module is imported lazily so that
    importing the registry stays cheap until an experiment actually runs.
    """

    def run(settings: RunSettings, context: StudyContext) -> str:
        import importlib

        module = importlib.import_module(f"repro.experiments.{module_name}")
        return module.format_table(
            module.run_experiment(settings, context=context)
        )

    return run


def _analytic_runner(module_name: str) -> ExperimentRunner:
    """Runner for the analytic tables (``run_experiment()`` takes nothing)."""

    def run(settings: RunSettings, context: StudyContext) -> str:
        import importlib

        del settings, context  # analytic: nothing to scale or cache
        module = importlib.import_module(f"repro.experiments.{module_name}")
        return module.format_table(module.run_experiment())

    return run


def _validation_runner() -> ExperimentRunner:
    """Runner for the substrate cross-validation (settings, no context)."""

    def run(settings: RunSettings, context: StudyContext) -> str:
        del context  # cheap network-level runs; not keyed like DB cells
        from repro.experiments import validation

        return validation.format_table(validation.run_experiment(settings))

    return run


def _ablation_runner(sweep_name: str, formatter_name: str) -> ExperimentRunner:
    """Runner for the ablation sweeps in :mod:`repro.experiments.ablations`."""

    def run(settings: RunSettings, context: StudyContext) -> str:
        from repro.experiments import ablations

        sweep = getattr(ablations, sweep_name)
        formatter = getattr(ablations, formatter_name)
        return formatter(sweep(settings, context=context))

    return run


def _study_runner(study_name: str) -> ExperimentRunner:
    """Runner that executes a catalog study and renders its ranked report."""

    def run(settings: RunSettings, context: StudyContext) -> str:
        from repro.ablation import build_study, render_study_report, run_study

        spec = build_study(study_name, settings)
        outcome = run_study(spec, context=context)
        return render_study_report(outcome)

    return run


#: Registration order is report order: analytic foundations first, then
#: the paper's simulation tables, then extensions, then ablations.
_EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        name="table5",
        title="Table 5 — Waiting Improvement Factor",
        description="analytic WIF(L,i) grid vs the paper's values",
        analytic=True,
        runner=_analytic_runner("table5"),
    ),
    Experiment(
        name="table6",
        title="Table 6 — Fairness Improvement Factor",
        description="analytic FIF(L,i) grid vs the paper's values",
        analytic=True,
        runner=_analytic_runner("table6"),
    ),
    Experiment(
        name="table8",
        title="Table 8 — Waiting time versus think time",
        description="the four policies across think times 150-450",
        runner=_table_runner("table8"),
    ),
    Experiment(
        name="table9",
        title="Table 9 — MPL sensitivity",
        description="policy improvements across multiprogramming levels",
        runner=_table_runner("table9"),
    ),
    Experiment(
        name="table10",
        title="Table 10 — System capacity",
        description="maximum mpl per response-time bound, LOCAL vs LERT",
        runner=_table_runner("table10"),
    ),
    Experiment(
        name="table11",
        title="Table 11 — Scaling with the number of sites",
        description="policy improvements as the fleet grows",
        runner=_table_runner("table11"),
    ),
    Experiment(
        name="table12",
        title="Table 12 — CPU/disk demand ratio",
        description="policy improvements across resource-demand mixes",
        runner=_table_runner("table12"),
    ),
    Experiment(
        name="msg",
        title="Message-length sensitivity",
        description="BNQRD and LERT vs BNQ as the subnet msg_length grows",
        runner=_table_runner("msg_sensitivity"),
    ),
    Experiment(
        name="failures",
        title="Site failures and recovery",
        description="policies under a crash/recovery fault plan",
        runner=_table_runner("failure"),
    ),
    Experiment(
        name="open",
        title="Open-system workloads",
        description="policies under open arrivals with admission control",
        runner=_table_runner("open_system"),
    ),
    Experiment(
        name="validation",
        title="Substrate cross-validation",
        description="simulator vs exact MVA vs AMVA vs bounds",
        runner=_validation_runner(),
    ),
    Experiment(
        name="ablation-stale",
        title="Ablation A2 — load-information staleness",
        description="LERT's advantage as load snapshots go stale",
        runner=_ablation_runner("stale_info_sweep", "format_stale_info"),
    ),
    Experiment(
        name="ablation-disk",
        title="Ablation A1 — disk organization",
        description="per-disk queues vs one shared disk queue",
        runner=_ablation_runner(
            "disk_organization_study", "format_disk_organization"
        ),
    ),
    Experiment(
        name="ablation-updates",
        title="Ablation — update fraction",
        description="read-only assumption relaxed via update propagation",
        runner=_ablation_runner("update_fraction_sweep", "format_update_fraction"),
    ),
    Experiment(
        name="ablation-heterogeneous",
        title="Ablation — heterogeneous CPU speeds",
        description="policies on a fleet with unequal CPU speeds",
        runner=_ablation_runner("heterogeneity_study", "format_heterogeneity"),
    ),
    Experiment(
        name="ablation-subnet",
        title="Ablation — subnet topology",
        description="Table 11's sweep on a ring vs a point-to-point mesh",
        runner=_ablation_runner("subnet_scaling_study", "format_subnet_scaling"),
    ),
    Experiment(
        name="study-core",
        title="Core component-importance study",
        description=(
            "ranked A1-A4 component importance from the committed core "
            "StudySpec"
        ),
        runner=_study_runner("core"),
    ),
)

_REGISTRY: Dict[str, Experiment] = {e.name: e for e in _EXPERIMENTS}
if len(_REGISTRY) != len(_EXPERIMENTS):  # pragma: no cover - registration bug
    raise RuntimeError("duplicate experiment names in the registry")


def all_experiments() -> Tuple[Experiment, ...]:
    """Every registered experiment, in report order."""
    return _EXPERIMENTS


def experiment_names() -> Tuple[str, ...]:
    """Registered names, in report order (CLI subcommand set)."""
    return tuple(e.name for e in _EXPERIMENTS)


def get_experiment(name: str) -> Experiment:
    """Look up one experiment by name; raises ``KeyError`` with options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


__all__ = [
    "Experiment",
    "ExperimentRunner",
    "all_experiments",
    "experiment_names",
    "get_experiment",
]
