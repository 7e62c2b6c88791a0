"""Experiment settings, results container and the top-level runner.

``run_experiment`` / ``run_all`` are built on the plan/scheduler
architecture: experiments that expand into independent ``(series,
fraction, repeat)`` cells (see :mod:`repro.experiments.plan`) run
through :func:`~repro.experiments.scheduler.run_plan` on the workers
:func:`open_workers` picks, with results bit-identical across executors;
the two irregular experiments (``analytical_accuracy``,
``ablation_sampling_strategy``) fall back to their plain functions.  A
persistent :class:`~repro.datasets.store.DatasetStore` can be shared
across the run (plan-less experiments included) so datasets are
simulated and analytical caches warmed at most once per machine.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluation import LearningCurve

__all__ = ["ExperimentSettings", "ExperimentResult", "run_experiment", "run_all",
           "open_workers", "EXECUTORS", "EXPERIMENTS"]

#: Valid values of the ``executor`` argument / ``--executor`` CLI flag.
EXECUTORS = ("serial", "process", "remote")


@dataclass(frozen=True)
class ExperimentSettings:
    """Quality/cost knobs shared by all experiments.

    Parameters
    ----------
    n_estimators:
        Trees per ensemble (the paper uses scikit-learn defaults; smaller
        values keep the full reproduction suite fast without changing the
        qualitative outcome).
    n_repeats:
        Independent uniform samplings per training fraction (the spread of
        the paper's box plots).
    max_configs:
        Optional cap on dataset size (uniform subsample); ``None`` uses the
        full configuration space of the figure.
    random_state:
        Master seed.
    """

    n_estimators: int = 20
    n_repeats: int = 3
    max_configs: int | None = None
    random_state: int = 0

    @classmethod
    def quick(cls) -> ExperimentSettings:
        """Cheap settings for tests and smoke runs."""
        return cls(n_estimators=8, n_repeats=2, max_configs=400, random_state=0)

    @classmethod
    def full(cls) -> ExperimentSettings:
        """Higher-fidelity settings (closer to scikit-learn defaults)."""
        return cls(n_estimators=60, n_repeats=5, max_configs=None, random_state=0)


@dataclass
class ExperimentResult:
    """Outcome of one experiment: the series the corresponding figure plots."""

    experiment_id: str
    description: str
    dataset_name: str
    curves: dict[str, LearningCurve] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def rows(self) -> list[dict]:
        """Flat rows (series, fraction, MAPE statistics) across all curves."""
        rows: list[dict] = []
        for curve in self.curves.values():
            rows.extend(curve.as_rows())
        return rows

    def best_mape(self, series: str) -> float:
        """Lowest mean MAPE achieved by a series across its fractions."""
        return float(np.min(self.curves[series].means))

    def summary(self) -> str:
        """Formatted text table of the result (delegates to reporting)."""
        from repro.experiments.reporting import format_result

        return format_result(self)


def _resolve_store(store):
    """Accept a DatasetStore, a directory path, or None."""
    if store is None:
        return None
    from repro.datasets.store import DatasetStore

    if isinstance(store, DatasetStore):
        return store
    return DatasetStore(store)


#: Names of all available experiments (figures first, then ablations),
#: the one list every other list of experiment names derives from.  Each
#: has a plan in :func:`~repro.experiments.plan.experiment_plan` except the
#: two plan-less ones, which are functions of the same name in
#: :mod:`repro.experiments.figures` and :mod:`repro.experiments.ablations`.
EXPERIMENTS = (
    "figure3_stencil",
    "figure3_fmm",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "analytical_accuracy",
    "ablation_aggregation",
    "ablation_analytical_quality",
    "ablation_sampling_strategy",
    "ablation_ml_backend",
)


def open_workers(executor: str = "serial", jobs: int = 1, pool=None, fleet=None):
    """Where cells run, as a context manager yielding ``run_plan``'s ``workers``.

    It yields the caller's *pool* or *fleet* when given; otherwise, on
    entry, it opens a throwaway ``WorkerPool(jobs)`` for ``"process"``
    with ``jobs > 1`` or a coordinator with *jobs* localhost workers for
    ``"remote"``, and closes it on exit; else ``None`` (this process).
    The arguments are checked at once, before anything opens.
    """
    from repro.experiments.pool import _resolve_jobs

    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    jobs = _resolve_jobs(jobs)
    if pool is not None and executor != "process":
        raise ValueError(
            f"pool requires the process executor, got executor={executor!r}")
    if fleet is not None and executor != "remote":
        raise ValueError(
            f"fleet requires the remote executor, got executor={executor!r}")
    return _opened_workers(executor, jobs, pool if pool is not None else fleet)


@contextmanager
def _opened_workers(executor: str, jobs: int, given):
    if given is None and executor == "process" and jobs > 1:
        from repro.experiments.pool import WorkerPool

        with WorkerPool(jobs) as pool:
            yield pool
    elif given is None and executor == "remote":
        from repro.distributed.coordinator import Coordinator

        with Coordinator() as fleet:
            fleet.spawn_local_workers(jobs)
            yield fleet
    else:
        yield given


def run_experiment(name: str, settings: ExperimentSettings | None = None, *,
                   executor: str = "serial", jobs: int = 1,
                   store=None, fleet=None, pool=None,
                   publish_models: bool = False) -> ExperimentResult:
    """Run one experiment by name.

    Parameters
    ----------
    name:
        One of :data:`EXPERIMENTS`.
    settings:
        Quality/cost knobs (default :class:`ExperimentSettings()`).
    executor:
        ``"serial"``, ``"process"`` or ``"remote"`` — how the
        experiment's ``(series, fraction, repeat)`` cells are
        dispatched.  Results are bit-identical across executors.
    jobs:
        Worker count for the process executor (``-1`` = CPU count) or
        the size of the spawned local fleet for ``"remote"``.
    store:
        Optional persistent dataset/cache store — a
        :class:`~repro.datasets.store.DatasetStore` or a directory path.
    fleet:
        Remote executor only: an existing
        :class:`~repro.distributed.coordinator.Coordinator` serving a
        worker fleet (``None`` spawns a localhost fleet per plan).
    pool:
        Process executor only: an existing warm
        :class:`~repro.experiments.pool.WorkerPool` (``None`` spawns a
        pool per plan; see :func:`run_all`, which shares one across the
        whole sequence).
    publish_models:
        After the run, fit one canonical model per servable series on
        the full dataset and publish it into the *store* for the
        serving tier (see :mod:`repro.serving`); requires a store.

    The two plan-less experiments (``analytical_accuracy``,
    ``ablation_sampling_strategy``) always run serially in-process, in a
    ``planless`` span; with a *store* they read their datasets and
    analytical caches through it as plans do.  Executor and jobs are
    still validated so invalid values fail uniformly.  They have no plan
    fingerprint, hence nothing to publish: requesting ``publish_models``
    for them is an error.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    workers = open_workers(executor, jobs, pool, fleet)
    settings = settings or ExperimentSettings()
    from repro.experiments.plan import experiment_plan
    from repro.obs.tracing import TRACER

    # Under an active trace collection the whole experiment runs inside
    # one span; the scheduler's spans, or the planless span, nest under
    # it.  A no-op (one attribute check) when tracing is off.
    with TRACER.span("experiment", attrs={"experiment": name,
                                          "executor": executor}):
        plan = experiment_plan(name, settings)
        if plan is None:
            if publish_models:
                raise ValueError(
                    f"experiment {name!r} has no plan, so it has no servable "
                    "models to publish")
            # Looked up on its module at call time, so a function rebound
            # there (a profiler's wrapper, a test's stand-in) is the one run.
            from repro.experiments import ablations, figures

            module = figures if name == "analytical_accuracy" else ablations
            with TRACER.span("planless"):
                return getattr(module, name)(settings=settings,
                                             store=_resolve_store(store))
        from repro.experiments.scheduler import run_plan

        with workers as opened:
            return run_plan(plan, workers=opened, store=_resolve_store(store),
                            publish_models=publish_models)


def run_all(settings: ExperimentSettings | None = None,
            names: tuple[str, ...] | None = None, *,
            executor: str = "serial", jobs: int = 1,
            store=None, fleet=None, pool=None,
            publish_models: bool = False) -> dict[str, ExperimentResult]:
    """Run several (default: all) experiments and return their results by name.

    One store is shared across all experiments of the run, so e.g. the
    blocked-stencil dataset is generated once for figure 3, 6 and the
    ablations instead of once each: the caller's *store*, or else one
    anonymous ``memory://`` store that lives for the call.  So are the
    workers (:func:`open_workers` runs once): the caller's *pool* or
    *fleet*, or one throwaway pool or fleet, serves every experiment, so
    workers spawn once and keep their per-plan memos across experiments.

    With ``publish_models``, every plan-backed experiment additionally
    publishes its serving-tier models into the shared *store*; the two
    plan-less experiments are silently left unpublished (they have no
    plan fingerprint to key a model under).
    """
    from repro.experiments.plan import experiment_plan

    store = _resolve_store(store)
    if publish_models and store is None:
        raise ValueError("publish_models requires a store to publish into")
    if store is None:
        store = _resolve_store("memory://")
    results: dict[str, ExperimentResult] = {}
    with open_workers(executor, jobs, pool, fleet) as workers:
        for name in (names or EXPERIMENTS):
            publish = publish_models and experiment_plan(name, settings) is not None
            results[name] = run_experiment(
                name, settings=settings, executor=executor, jobs=jobs, store=store,
                pool=workers if executor == "process" else None,
                fleet=workers if executor == "remote" else None,
                publish_models=publish)
    return results
