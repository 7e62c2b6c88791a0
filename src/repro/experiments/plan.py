"""Declarative experiment plans.

The paper's evaluation is a grid of independent ``(figure, series,
fraction, repeat)`` learning-curve cells.  This module describes each
experiment as data rather than code: an :class:`ExperimentPlan` names the
dataset (as a :class:`~repro.datasets.store.DatasetSpec` recipe), the
series (each a picklable :class:`FactorySpec` plus its training
fractions), the repeat count and the master seed.  Because every field is
a frozen dataclass of primitives, a plan — and the :class:`EvalCell`
tasks it expands into — can cross process boundaries, which is what lets
:mod:`repro.experiments.scheduler` dispatch cells to worker processes
and fleets while guaranteeing results bit-identical to the serial run.

Experiments that do not fit the learning-curve-grid shape
(``analytical_accuracy``, ``ablation_sampling_strategy``) have no plan;
:func:`experiment_plan` returns ``None`` and the runner falls back to
calling their function directly.  :func:`planless_reads` names the
datasets and caches they read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.analytical import (
    AnalyticalPredictionCache,
    FmmAnalyticalModel,
    StencilAnalyticalModel,
    calibrate_scale,
)
from repro.analytical.base import AnalyticalModel
from repro.core.evaluation import EvalCell, plan_learning_curve
from repro.core.features import PerformanceDataset
from repro.core.hybrid import HybridPerformanceModel
from repro.datasets.store import DatasetSpec
from repro.experiments.runner import EXPERIMENTS, ExperimentSettings
from repro.ml import (
    BaggingRegressor,
    DecisionTreeRegressor,
    ExtraTreesRegressor,
    KNeighborsRegressor,
    Pipeline,
    RandomForestRegressor,
    StandardScaler,
)
from repro.ml.metrics import mean_absolute_percentage_error

__all__ = [
    "EstimatorSpec",
    "FactorySpec",
    "SeriesSpec",
    "ExperimentPlan",
    "experiment_plan",
    "expand_cells",
    "build_analytical",
    "build_factory",
    "compute_extras",
    "BlockingBlindStencilModel",
    "ConstantAnalyticalModel",
    "PLANNED_EXPERIMENTS",
    "planless_reads",
]

#: Training fractions used in the paper's figures.
FIG3_STENCIL_FRACTIONS = (0.01, 0.02, 0.04, 0.06, 0.10)
FIG3_FMM_FRACTIONS = (0.10, 0.20, 0.40, 0.60, 0.80)
FIG5_ML_FRACTIONS = (0.10, 0.15, 0.20)
FIG5_HYBRID_FRACTIONS = (0.01, 0.02, 0.04)
FIG6_FRACTIONS = (0.01, 0.02, 0.04)
FIG7_FRACTIONS = (0.01, 0.02, 0.04)
FIG8_FRACTIONS = (0.15, 0.20, 0.25)
ABLATION_FRACTIONS = (0.01, 0.02, 0.04)


# --------------------------------------------------------------------------- #
# Degraded analytical models (ablation_analytical_quality)
# --------------------------------------------------------------------------- #
class BlockingBlindStencilModel(AnalyticalModel):
    """The stencil analytical model with the blocking information removed.

    Every configuration is predicted as if it were un-blocked, so the model
    keeps the grid-size dependence but loses the dimension that actually
    dominates the Figure 6 dataset — a *structurally* degraded analytical
    model (monotone transformations such as rescaling or powers would be
    absorbed by the hybrid's log feature + standardization and change
    nothing).
    """

    def __init__(self, base: AnalyticalModel) -> None:
        self.base = base

    def predict_config(self, config) -> float:
        """The base model's prediction for *config* with its blocking zeroed."""
        from repro.stencil.config import StencilConfig

        stripped = StencilConfig(I=config.I, J=config.J, K=config.K,
                                 unroll=config.unroll, threads=config.threads)
        return self.base.predict_config(stripped)

    def predict_rows(self, X: np.ndarray, feature_names) -> np.ndarray:
        """Vectorized :meth:`predict_config`: the base's ``predict_rows`` un-blocked.

        Checks the ``bi``/``bj``/``bk`` columns as :class:`StencilConfig`
        does (each must round to >= 0), zeroes them in a copy of *X* and
        hands it to the base model, which checks every other column.  Bit
        for bit the per-row ``predict_config(config_from_features(row))``,
        which reads a repeated column's last occurrence.
        """
        names = list(feature_names)
        index = {name: j for j, name in enumerate(names)}
        blocking = [index[name] for name in ("bi", "bj", "bk") if name in index]
        if blocking:
            values = np.rint(X[:, blocking])
            bad = ~(values >= 0)
            if bad.any():
                k = int(np.argmax(bad.any(axis=0)))
                raise ValueError(f"{names[blocking[k]]} must be >= 0, got "
                                 f"{values[:, k][bad[:, k]][0]:g}")
            X = X.copy()
            X[:, blocking] = 0.0
        return self.base.predict_rows(X, names)

    def config_from_features(self, row, feature_names):
        """The base model's configuration for one feature row."""
        return self.base.config_from_features(row, feature_names)


class ConstantAnalyticalModel(AnalyticalModel):
    """An analytical model with no information at all (constant prediction).

    The hybrid built on it collapses to the pure ML model plus one useless
    feature — the lower bound of the analytical-quality sweep.
    """

    def __init__(self, base: AnalyticalModel, value: float = 1e-3) -> None:
        self.base = base
        self.value = value

    def predict_config(self, config) -> float:
        """The constant, whatever *config* is."""
        return self.value

    def predict_rows(self, X: np.ndarray, feature_names) -> np.ndarray:
        """The constant for every row of *X*.

        Rejects exactly the rows the base model rejects, as the per-row
        path does when it rebuilds each row's configuration: the base's
        ``predict_rows`` runs for its checks and its values are dropped.
        """
        self.base.predict_rows(X, feature_names)
        return np.full(X.shape[0], float(self.value))

    def config_from_features(self, row, feature_names):
        """The base model's configuration for one feature row."""
        return self.base.config_from_features(row, feature_names)


#: Analytical-model registry: key -> zero-argument builder.  Keys double as
#: the ``model_key`` under which warmed caches are persisted by the store.
_ANALYTICAL_BUILDERS = {
    "stencil": StencilAnalyticalModel,
    "fmm": FmmAnalyticalModel,
    "stencil_blocking_blind": lambda: BlockingBlindStencilModel(StencilAnalyticalModel()),
    "stencil_constant": lambda: ConstantAnalyticalModel(StencilAnalyticalModel()),
}


def build_analytical(key: str) -> AnalyticalModel:
    """Instantiate the analytical model registered under *key*."""
    try:
        return _ANALYTICAL_BUILDERS[key]()
    except KeyError:
        raise KeyError(
            f"unknown analytical model {key!r}; available: {sorted(_ANALYTICAL_BUILDERS)}"
        ) from None


# --------------------------------------------------------------------------- #
# Picklable model-factory specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EstimatorSpec:
    """Recipe for one ML regressor (the per-seed randomness stays outside).

    ``n_estimators`` is ignored by estimators that have no ensemble size
    (decision tree, k-NN).
    """

    name: str
    n_estimators: int = 0


@dataclass(frozen=True)
class FactorySpec:
    """Recipe for a per-seed model factory.

    ``kind`` selects the construction: ``"ml_pipeline"`` is the paper's
    standardize+regressor pipeline, ``"hybrid"`` couples the named
    analytical model with the estimator through
    :class:`~repro.core.hybrid.HybridPerformanceModel`.
    """

    kind: str
    estimator: EstimatorSpec
    analytical: str | None = None
    aggregate: bool = False


@dataclass(frozen=True)
class SeriesSpec:
    """One curve of an experiment: a label, a factory and its fractions."""

    label: str
    factory: FactorySpec
    fractions: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentPlan:
    """Complete declarative description of one learning-curve experiment.

    ``analytical`` names the model whose prediction cache backs the
    experiment's ``extra`` statistics; ``extras`` lists the symbolic
    post-processing steps :func:`compute_extras` performs after the merge.
    """

    name: str
    experiment_id: str
    description: str
    dataset: DatasetSpec
    series: tuple[SeriesSpec, ...]
    n_repeats: int
    random_state: int
    min_train: int = 3
    analytical: str | None = None
    extras: tuple[str, ...] = ()

    @property
    def fingerprint(self) -> str:
        """Content hash identifying the plan (the fleet protocol's plan id).

        First 16 hex digits of the SHA-256 of the canonical JSON encoding
        of every field (the plan is a frozen dataclass of primitives, so
        :func:`dataclasses.asdict` is lossless).  Two equal plans — even
        built in different processes — share the id, which is what lets a
        fleet worker memoize per-plan state across coordinator runs and a
        coordinator recognize stale messages from a previous plan.
        """
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def cache_keys(self) -> tuple[str, ...]:
        """Distinct analytical-model keys the plan needs caches for."""
        keys: list[str] = []
        for spec in self.series:
            if spec.factory.analytical and spec.factory.analytical not in keys:
                keys.append(spec.factory.analytical)
        if self.analytical and self.analytical not in keys:
            keys.append(self.analytical)
        return tuple(keys)


def _build_estimator(spec: EstimatorSpec, seed: int):
    if spec.name == "decision_tree":
        return DecisionTreeRegressor(random_state=seed)
    if spec.name == "extra_trees":
        return ExtraTreesRegressor(n_estimators=spec.n_estimators, random_state=seed)
    if spec.name == "random_forest":
        return RandomForestRegressor(n_estimators=spec.n_estimators, random_state=seed)
    if spec.name == "bagged_tree":
        return BaggingRegressor(estimator=DecisionTreeRegressor(),
                                n_estimators=spec.n_estimators, random_state=seed)
    if spec.name == "knn":
        return KNeighborsRegressor(n_neighbors=5, weights="distance")
    raise KeyError(f"unknown estimator {spec.name!r}")


def build_factory(spec: FactorySpec, dataset: PerformanceDataset,
                  cache: AnalyticalPredictionCache | None = None):
    """Resolve a :class:`FactorySpec` into a ``factory(seed) -> model`` callable.

    For hybrid factories the shared *cache* (bound to the spec's
    analytical model) is threaded into every instance, so each dataset
    row is evaluated by the analytical model at most once per process.
    An unknown estimator name raises ``KeyError`` here, not in a cell.
    """
    _build_estimator(spec.estimator, 0)
    if spec.kind == "ml_pipeline":
        def factory(seed: int):
            return Pipeline(steps=[
                ("scale", StandardScaler()),
                ("model", _build_estimator(spec.estimator, seed)),
            ])

        return factory
    if spec.kind == "hybrid":
        if spec.analytical is None:
            raise ValueError("hybrid factories need an analytical model key")
        analytical = cache.model if cache is not None else build_analytical(spec.analytical)

        def factory(seed: int):
            return HybridPerformanceModel(
                analytical_model=analytical,
                feature_names=dataset.feature_names,
                ml_model=_build_estimator(spec.estimator, seed),
                aggregate_analytical=spec.aggregate,
                analytical_cache=cache,
                random_state=seed,
            )

        return factory
    raise KeyError(f"unknown factory kind {spec.kind!r}")


# --------------------------------------------------------------------------- #
# Plan expansion and post-processing
# --------------------------------------------------------------------------- #
def expand_cells(plan: ExperimentPlan) -> list[EvalCell]:
    """Expand a plan into its independent :class:`EvalCell` tasks.

    Each series spawns its seeds from its own stream (seeded with the
    plan's master seed), exactly as the serial per-curve evaluation did,
    so the expansion is executor-independent.
    """
    cells: list[EvalCell] = []
    for spec in plan.series:
        cells.extend(plan_learning_curve(
            spec.fractions, plan.n_repeats,
            series=spec.label, factory_key=spec.label,
            min_train=plan.min_train, random_state=plan.random_state))
    return cells


def compute_extras(plan: ExperimentPlan, dataset: PerformanceDataset,
                   caches: dict[str, AnalyticalPredictionCache]) -> dict:
    """Post-merge ``extra`` statistics (analytical MAPEs, calibration)."""
    extra: dict = {}
    for key in plan.extras:
        if key in ("analytical_mape", "analytical_only_mape"):
            cache = caches[plan.analytical]
            extra[key] = mean_absolute_percentage_error(
                dataset.y, cache.predict(dataset.X))
        elif key == "analytical_quality":
            base_preds = caches["stencil"].predict(dataset.X)
            # Calibrate on the cached predictions (identical values to a
            # fresh per-config evaluation, without re-running the model).
            scale = calibrate_scale(base_preds, dataset.y)
            blind_preds = caches["stencil_blocking_blind"].predict(dataset.X)
            extra.update({
                "untuned_am_mape": mean_absolute_percentage_error(
                    dataset.y, base_preds),
                "calibrated_am_mape": mean_absolute_percentage_error(
                    dataset.y, scale * base_preds),
                "calibration_scale": scale,
                "blocking_blind_am_mape": mean_absolute_percentage_error(
                    dataset.y, blind_preds),
            })
        else:
            raise KeyError(f"unknown extras step {key!r}")
    return extra


# --------------------------------------------------------------------------- #
# The plans themselves
# --------------------------------------------------------------------------- #
def _pipeline(estimator: str, settings: ExperimentSettings) -> FactorySpec:
    n = 0 if estimator == "decision_tree" else settings.n_estimators
    return FactorySpec(kind="ml_pipeline", estimator=EstimatorSpec(estimator, n))


def _hybrid(analytical: str, settings: ExperimentSettings, *,
            estimator: EstimatorSpec | None = None,
            aggregate: bool = False) -> FactorySpec:
    est = estimator or EstimatorSpec("extra_trees", settings.n_estimators)
    return FactorySpec(kind="hybrid", estimator=est, analytical=analytical,
                       aggregate=aggregate)


def _dataset_spec(name: str, settings: ExperimentSettings) -> DatasetSpec:
    """The store recipe of registry dataset *name* under *settings*."""
    return DatasetSpec(name, max_configs=settings.max_configs, random_state=0)


#: Registry datasets each plan-less experiment reads, each with the
#: analytical model (registry key) whose warmed cache it reads alongside.
_PLANLESS_READS = {
    "analytical_accuracy": (("stencil-grid-only", "stencil"),
                            ("stencil-blocked", "stencil"),
                            ("stencil-threaded", "stencil"),
                            ("fmm", "fmm")),
    "ablation_sampling_strategy": (("stencil-blocked", "stencil"),),
}


def planless_reads(name: str, settings: ExperimentSettings | None = None,
                   ) -> tuple[tuple[DatasetSpec, str], ...]:
    """``(dataset spec, analytical key)`` pairs plan-less experiment *name* reads.

    The one list ``analytical_accuracy`` and ``ablation_sampling_strategy``
    take their datasets and caches from, and that ``--store-prune`` keeps;
    empty for every other experiment.
    """
    s = settings or ExperimentSettings()
    return tuple((_dataset_spec(dataset, s), key)
                 for dataset, key in _PLANLESS_READS.get(name, ()))


def experiment_plan(name: str,
                    settings: ExperimentSettings | None = None) -> ExperimentPlan | None:
    """The :class:`ExperimentPlan` for *name*, or ``None`` for opaque experiments."""
    s = settings or ExperimentSettings()

    def _plan(experiment_id: str, description: str, dataset_name: str,
              series: tuple[SeriesSpec, ...], analytical: str | None = None,
              extras: tuple[str, ...] = ()) -> ExperimentPlan:
        return ExperimentPlan(
            name=name, experiment_id=experiment_id, description=description,
            dataset=_dataset_spec(dataset_name, s), series=series,
            n_repeats=s.n_repeats, random_state=s.random_state,
            analytical=analytical, extras=extras,
        )

    if name == "figure3_stencil":
        return _plan(
            "figure3A",
            "ML model comparison on the stencil (grid sizes + blocking) dataset",
            "stencil-blocked",
            tuple(SeriesSpec(label, _pipeline(label, s), FIG3_STENCIL_FRACTIONS)
                  for label in ("decision_tree", "extra_trees", "random_forest")),
        )
    if name == "figure3_fmm":
        return _plan(
            "figure3B",
            "ML model comparison on the FMM (t, N, q, k) dataset",
            "fmm",
            tuple(SeriesSpec(label, _pipeline(label, s), FIG3_FMM_FRACTIONS)
                  for label in ("decision_tree", "extra_trees", "random_forest")),
        )
    if name == "figure5":
        # Accurate-analytical-model region (grid sizes only): pure extra
        # trees trains on 10/15/20% of the dataset, the hybrid on only 1/2/4%.
        return _plan(
            "figure5",
            "Hybrid (1-4% training) vs extra trees (10-20%) on grid-size-only stencil",
            "stencil-grid-only",
            (SeriesSpec("extra_trees", _pipeline("extra_trees", s), FIG5_ML_FRACTIONS),
             SeriesSpec("hybrid", _hybrid("stencil", s), FIG5_HYBRID_FRACTIONS)),
            analytical="stencil", extras=("analytical_mape",),
        )
    if name == "figure6":
        # Inaccurate analytical model (blocking added, untuned).  The hybrid
        # stacks its prediction as an extra feature with no final
        # aggregation; the inaccurate model still cuts the pure ML error
        # roughly in half, as in the paper.  ablation_aggregation evaluates
        # the aggregation variant.
        return _plan(
            "figure6",
            "Hybrid vs extra trees at 1-4% training on the blocked stencil dataset",
            "stencil-blocked",
            (SeriesSpec("extra_trees", _pipeline("extra_trees", s), FIG6_FRACTIONS),
             SeriesSpec("hybrid", _hybrid("stencil", s), FIG6_FRACTIONS)),
            analytical="stencil", extras=("analytical_mape",),
        )
    if name == "figure7":
        # Region the analytical model does not cover (multi-threading): as in
        # the paper, the serial model's prediction and the stacked one are
        # not aggregated, because the model does not capture parallelism.
        return _plan(
            "figure7",
            "Hybrid (serial AM) vs extra trees on the multithreaded stencil dataset",
            "stencil-threaded",
            (SeriesSpec("extra_trees", _pipeline("extra_trees", s), FIG7_FRACTIONS),
             SeriesSpec("hybrid", _hybrid("stencil", s), FIG7_FRACTIONS)),
            analytical="stencil", extras=("analytical_mape",),
        )
    if name == "figure8":
        return _plan(
            "figure8",
            "Hybrid vs extra trees at 15-25% training on the FMM dataset",
            "fmm",
            (SeriesSpec("extra_trees", _pipeline("extra_trees", s), FIG8_FRACTIONS),
             SeriesSpec("hybrid", _hybrid("fmm", s), FIG8_FRACTIONS)),
            analytical="fmm", extras=("analytical_mape",),
        )
    if name == "ablation_aggregation":
        return _plan(
            "ablation_aggregation",
            "Effect of the optional analytical/stacked aggregation stage",
            "stencil-blocked",
            (SeriesSpec("hybrid_stacked_only",
                        _hybrid("stencil", s, aggregate=False), ABLATION_FRACTIONS),
             SeriesSpec("hybrid_aggregated",
                        _hybrid("stencil", s, aggregate=True), ABLATION_FRACTIONS)),
            analytical="stencil", extras=("analytical_only_mape",),
        )
    if name == "ablation_analytical_quality":
        # The information content of the analytical model varies: full,
        # blocking-blind, constant.  Merely rescaling it (calibration)
        # cannot move the hybrid: the log feature plus standardization make
        # the stacked model invariant to any monotone power-law transform of
        # the analytical prediction.  The extras report the untuned and
        # calibrated models' standalone MAPEs, to show how much calibration
        # would matter on its own.
        return _plan(
            "ablation_analytical_quality",
            "Hybrid accuracy with full, blocking-blind and uninformative analytical models",
            "stencil-blocked",
            (SeriesSpec("hybrid_full_am", _hybrid("stencil", s), ABLATION_FRACTIONS),
             SeriesSpec("hybrid_blocking_blind_am",
                        _hybrid("stencil_blocking_blind", s), ABLATION_FRACTIONS),
             SeriesSpec("hybrid_constant_am",
                        _hybrid("stencil_constant", s), ABLATION_FRACTIONS)),
            analytical="stencil", extras=("analytical_quality",),
        )
    if name == "ablation_ml_backend":
        return _plan(
            "ablation_ml_backend",
            "Hybrid model with different stacked ML learners",
            "stencil-blocked",
            (SeriesSpec("hybrid_extra_trees",
                        _hybrid("stencil", s,
                                estimator=EstimatorSpec("extra_trees", s.n_estimators)),
                        ABLATION_FRACTIONS),
             SeriesSpec("hybrid_random_forest",
                        _hybrid("stencil", s,
                                estimator=EstimatorSpec("random_forest", s.n_estimators)),
                        ABLATION_FRACTIONS),
             SeriesSpec("hybrid_bagged_tree",
                        _hybrid("stencil", s,
                                estimator=EstimatorSpec("bagged_tree",
                                                        max(5, s.n_estimators // 2))),
                        ABLATION_FRACTIONS),
             SeriesSpec("hybrid_knn",
                        _hybrid("stencil", s, estimator=EstimatorSpec("knn")),
                        ABLATION_FRACTIONS)),
            analytical="stencil",
        )
    return None


#: Experiment names that expand into cell plans, in ``EXPERIMENTS`` order
#: (the rest run opaquely).
PLANNED_EXPERIMENTS = tuple(name for name in EXPERIMENTS if name not in _PLANLESS_READS)
