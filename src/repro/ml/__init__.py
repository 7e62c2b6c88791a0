"""From-scratch machine-learning substrate.

The paper (Section V) uses scikit-learn's decision-tree, random-forest and
extremely-randomized-trees (extra-trees) regressors, standardization
preprocessing and MAPE scoring.  This package implements those
estimators on NumPy only, plus the two the ablations compare against
(bagged trees and k-NN), with a scikit-learn-compatible
``fit``/``predict`` interface so that the core library and experiments
read like the paper's methodology.  The paper's stacking of the
analytical prediction under an ML model lives in
:class:`repro.core.hybrid.HybridPerformanceModel`.

Estimators
----------
* :class:`~repro.ml.tree.DecisionTreeRegressor` — CART with variance
  (MSE) reduction splits.
* :class:`~repro.ml.forest.RandomForestRegressor` — bootstrapped trees with
  per-split feature subsampling.
* :class:`~repro.ml.forest.ExtraTreesRegressor` — extremely randomized
  trees (random split thresholds), the paper's best performer.
* :class:`~repro.ml.bagging.BaggingRegressor` — bootstrap aggregation of an
  arbitrary base estimator.
* :class:`~repro.ml.neighbors.KNeighborsRegressor` — distance-based baseline.
"""

from repro.ml._packed import PackedForest
from repro.ml.bagging import BaggingRegressor
from repro.ml.base import BaseEstimator, RegressorMixin, TransformerMixin, clone
from repro.ml.forest import ExtraTreesRegressor, RandomForestRegressor
from repro.ml.metrics import mean_absolute_percentage_error, r2_score
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "RegressorMixin",
    "TransformerMixin",
    "clone",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "ExtraTreesRegressor",
    "PackedForest",
    "BaggingRegressor",
    "KNeighborsRegressor",
    "StandardScaler",
    "Pipeline",
    "mean_absolute_percentage_error",
    "r2_score",
]
