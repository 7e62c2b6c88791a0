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
  bagged trees and k-NN as the stacked learner.

All but the sampling-strategy ablation are regular learning-curve grids,
declared as plans in :func:`~repro.experiments.plan.experiment_plan` and
run by name through :func:`~repro.experiments.runner.run_experiment`
like the figures.  The sampling-strategy ablation substitutes its own
training-set selector for the evaluation protocol's uniform split, so it
has no plan; ``run_experiment`` calls it from here.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.evaluation import LearningCurve, LearningCurvePoint
from repro.core.hybrid import HybridPerformanceModel
from repro.datasets.sampling import latin_hypercube_indices, uniform_sample_indices
from repro.experiments.plan import planless_reads
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.experiments.scheduler import resolve_data
from repro.ml import ExtraTreesRegressor
from repro.ml.metrics import mean_absolute_percentage_error
from repro.utils.rng import spawn_seeds

__all__ = ["ablation_sampling_strategy"]

_FRACTIONS = (0.01, 0.02, 0.04)


def ablation_sampling_strategy(settings: ExperimentSettings | None = None,
                               store=None) -> ExperimentResult:
    """Uniform random vs stratified training-set selection at small fractions.

    The blocked-stencil dataset and its warmed ``stencil`` cache come from
    :func:`~repro.experiments.scheduler.resolve_data`, through the
    optional *store* (a :class:`~repro.datasets.store.DatasetStore`) as a
    plan reads them.
    """
    settings = settings or ExperimentSettings()
    ((spec, key),) = planless_reads("ablation_sampling_strategy", settings)
    dataset, caches = resolve_data(spec, (key,), store)
    cache = caches[key]
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
