"""Ablation experiments for the design choices of the hybrid model.

These go beyond the paper's figures and quantify how much each ingredient
of the hybrid model contributes:

* **aggregation** — stacking only vs stacking + analytical/stacked
  aggregation (the paper's optional bagging stage) vs analytical only;
* **analytical quality** — hybrid accuracy when the analytical model is
  replaced by a calibrated version or by a deliberately degraded one
  (structurally blinded to blocking, or constant);
* **sampling strategy** — uniform random vs Latin-hypercube-style
  stratified training-set selection at small fractions;
* **ML backend** — extra trees (the paper's choice) vs random forest,
  bagged trees and k-NN as the stacked learner;
* **tree method** — exact vs histogram-binned split search for the ML
  and hybrid models.

All but the sampling-strategy ablation are regular learning-curve grids
and are declared as plans in :mod:`repro.experiments.plan` (so they run
through the same scheduler as the figures); the sampling-strategy
ablation substitutes its own training-set selector for the evaluation
protocol's uniform split and therefore runs opaquely.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.evaluation import LearningCurve, LearningCurvePoint
from repro.core.features import PerformanceDataset
from repro.core.hybrid import HybridPerformanceModel
from repro.datasets.sampling import latin_hypercube_indices, uniform_sample_indices
from repro.datasets.store import DatasetSpec
from repro.experiments.runner import ExperimentResult, ExperimentSettings, _resolve_store
from repro.experiments.scheduler import run_named_plan, warmed_cache
from repro.ml import ExtraTreesRegressor
from repro.ml.metrics import mean_absolute_percentage_error
from repro.utils.rng import spawn_seeds

__all__ = [
    "ablation_aggregation",
    "ablation_analytical_quality",
    "ablation_sampling_strategy",
    "ablation_ml_backend",
    "ablation_tree_method",
]

_FRACTIONS = (0.01, 0.02, 0.04)


def ablation_aggregation(settings: ExperimentSettings | None = None,
                         dataset: PerformanceDataset | None = None,
                         **scheduler_options) -> ExperimentResult:
    """Stacking-only vs aggregation vs analytical-only on the blocked stencil dataset."""
    return run_named_plan("ablation_aggregation", settings, dataset, **scheduler_options)


def ablation_analytical_quality(settings: ExperimentSettings | None = None,
                                dataset: PerformanceDataset | None = None,
                                **scheduler_options) -> ExperimentResult:
    """Hybrid accuracy as the *information content* of the analytical model varies.

    Three analytical models feed the same hybrid pipeline: the paper's full
    (untuned) model, a blocking-blind variant that only knows the grid
    size, and a constant model carrying no information.  Note that merely
    *rescaling* the analytical model (calibration) cannot change the hybrid:
    the log-feature plus standardization make the stacked model invariant
    to any monotone power-law transformation of the analytical prediction —
    the standalone MAPEs of the untuned and calibrated models are reported
    to quantify how much calibration would matter on its own.
    """
    return run_named_plan("ablation_analytical_quality", settings, dataset,
                         **scheduler_options)


def ablation_ml_backend(settings: ExperimentSettings | None = None,
                        dataset: PerformanceDataset | None = None,
                        **scheduler_options) -> ExperimentResult:
    """Different stacked learners inside the hybrid model."""
    return run_named_plan("ablation_ml_backend", settings, dataset, **scheduler_options)


def ablation_tree_method(settings: ExperimentSettings | None = None,
                         dataset: PerformanceDataset | None = None,
                         **scheduler_options) -> ExperimentResult:
    """Exact vs histogram-binned split search for the ML and hybrid models.

    ``tree_method="hist"`` quantizes features to quantile bins at fit
    time (see :mod:`repro.ml._hist`); this ablation verifies that the
    learning curves it produces are statistically indistinguishable from
    exact split search's on the blocked-stencil dataset.
    """
    return run_named_plan("ablation_tree_method", settings, dataset,
                          **scheduler_options)


def ablation_sampling_strategy(settings: ExperimentSettings | None = None,
                               dataset: PerformanceDataset | None = None,
                               store=None) -> ExperimentResult:
    """Uniform random vs stratified training-set selection at small fractions.

    With a *store* (and no *dataset* override, which bypasses it) the
    blocked-stencil dataset and its warmed ``stencil`` cache are read
    through the store, as a plan reads them.
    """
    settings = settings or ExperimentSettings()
    spec = DatasetSpec("stencil-blocked", max_configs=settings.max_configs, random_state=0)
    if dataset is not None:
        store = None
    else:
        store = _resolve_store(store)
        dataset = store.get(spec) if store is not None else spec.build()
    cache = warmed_cache("stencil", spec, dataset, store)
    analytical = cache.model
    extra: dict = {}

    curves: dict[str, LearningCurve] = {}
    for strategy_name, selector in (
        ("uniform", lambda X, k, seed: uniform_sample_indices(X.shape[0], k, random_state=seed)),
        ("stratified", lambda X, k, seed: latin_hypercube_indices(X, k, random_state=seed)),
    ):
        curve = LearningCurve(label=f"hybrid_{strategy_name}")
        for fraction in _FRACTIONS:
            n_train = max(3, int(round(fraction * dataset.n_samples)))
            point = LearningCurvePoint(fraction=fraction, n_train=n_train)
            # crc32, not hash(): str hashing is salted per process, which made
            # this experiment unreproducible across invocations.
            strategy_offset = zlib.crc32(strategy_name.encode()) % 1000
            for seed in spawn_seeds(settings.random_state + strategy_offset,
                                    settings.n_repeats):
                train_idx = selector(dataset.X, n_train, seed)
                mask = np.ones(dataset.n_samples, dtype=bool)
                mask[train_idx] = False
                model = HybridPerformanceModel(
                    analytical_model=analytical,
                    feature_names=dataset.feature_names,
                    ml_model=ExtraTreesRegressor(n_estimators=settings.n_estimators,
                                                 random_state=seed),
                    analytical_cache=cache,
                    random_state=seed,
                )
                model.fit(dataset.X[train_idx], dataset.y[train_idx])
                point.mapes.append(mean_absolute_percentage_error(
                    dataset.y[mask], model.predict(dataset.X[mask])))
            curve.points.append(point)
        curves[curve.label] = curve
    return ExperimentResult(
        experiment_id="ablation_sampling_strategy",
        description="Uniform vs stratified training-set sampling for the hybrid model",
        dataset_name=dataset.name,
        curves=curves,
        extra=extra,
    )
