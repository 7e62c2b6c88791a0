"""Experiment definitions reproducing every figure of the paper's evaluation.

Each experiment in :data:`EXPERIMENTS` is named once and run by name
with :func:`~repro.experiments.runner.run_experiment` /
:func:`~repro.experiments.runner.run_all` (or ``python -m
repro.experiments``), which returns an
:class:`~repro.experiments.runner.ExperimentResult` whose rows are the
series the paper plots (MAPE versus training-set size).  The companion
benchmarks in ``benchmarks/`` run them this way and print the resulting
tables.

A figure or ablation is a plan (:func:`experiment_plan`): which dataset,
which models, which training fractions.  It expands into picklable
``(series, fraction, repeat)`` cells that :func:`run_plan` runs in this
process, on a worker pool or on a fleet with bit-identical results,
backed by an optional persistent dataset/cache store
(:mod:`repro.datasets.store`).  The two experiments that are not
learning-curve grids, ``analytical_accuracy`` and
``ablation_sampling_strategy``, have no plan and run as functions.
"""

from repro.experiments.ablations import ablation_sampling_strategy
from repro.experiments.figures import analytical_accuracy
from repro.experiments.plan import (
    PLANNED_EXPERIMENTS,
    ExperimentPlan,
    FactorySpec,
    SeriesSpec,
    expand_cells,
    experiment_plan,
)
from repro.experiments.pool import WorkerPool
from repro.experiments.reporting import format_curves, format_result, results_to_markdown
from repro.experiments.runner import (
    EXECUTORS,
    EXPERIMENTS,
    ExperimentResult,
    ExperimentSettings,
    run_all,
    run_experiment,
)
from repro.experiments.scheduler import run_plan

__all__ = [
    "ExperimentResult",
    "ExperimentSettings",
    "run_experiment",
    "run_all",
    "EXPERIMENTS",
    "ExperimentPlan",
    "FactorySpec",
    "SeriesSpec",
    "experiment_plan",
    "expand_cells",
    "PLANNED_EXPERIMENTS",
    "EXECUTORS",
    "run_plan",
    "WorkerPool",
    "analytical_accuracy",
    "ablation_sampling_strategy",
    "format_curves",
    "format_result",
    "results_to_markdown",
]
