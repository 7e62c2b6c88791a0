"""From-scratch machine-learning substrate.

The paper (Section V) uses scikit-learn's decision-tree, random-forest and
extremely-randomized-trees (extra-trees) regressors, standardization
preprocessing, uniform random training-set sampling, and MAPE scoring; its
hybrid model (Section VI) additionally uses stacking and bagging ensemble
methods.  This package implements all of those components on NumPy only,
with a scikit-learn-compatible ``fit``/``predict`` interface so that the
core library and experiments read like the paper's methodology.

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
* :class:`~repro.ml.stacking.StackingRegressor` — stacked generalization.
* :class:`~repro.ml.linear.LinearRegression`, :class:`~repro.ml.linear.Ridge`
  — linear baselines.
* :class:`~repro.ml.neighbors.KNeighborsRegressor` — distance-based baseline.
"""

from repro.ml._packed import PackedForest
from repro.ml.bagging import BaggingRegressor
from repro.ml.base import BaseEstimator, RegressorMixin, TransformerMixin, clone
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import ExtraTreesRegressor, RandomForestRegressor
from repro.ml.linear import LinearRegression, Ridge
from repro.ml.metrics import (
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_squared_error,
    r2_score,
    root_mean_squared_error,
)
from repro.ml.model_selection import (
    GridSearchCV,
    KFold,
    ParameterGrid,
    cross_val_score,
    train_test_split,
)
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.pipeline import Pipeline, make_pipeline
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.stacking import StackingRegressor
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
    "GradientBoostingRegressor",
    "StackingRegressor",
    "LinearRegression",
    "Ridge",
    "KNeighborsRegressor",
    "StandardScaler",
    "MinMaxScaler",
    "Pipeline",
    "make_pipeline",
    "mean_absolute_percentage_error",
    "mean_absolute_error",
    "mean_squared_error",
    "root_mean_squared_error",
    "r2_score",
    "train_test_split",
    "KFold",
    "cross_val_score",
    "ParameterGrid",
    "GridSearchCV",
]
