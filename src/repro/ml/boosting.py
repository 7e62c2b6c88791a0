"""Gradient-boosted regression trees.

Not used by the paper's headline experiments (which pick extra trees), but
a natural additional baseline for the ablation benchmarks: boosting builds
an additive model of shallow trees, which behaves very differently from
variance-reducing ensembles at tiny training sizes.

Every stage is a one-tree forest grown by the level-synchronous builder
the forest estimators use (:mod:`repro.ml._batched`).

Prediction packs the fitted stages into a single
:class:`~repro.ml._packed.PackedForest` arena at the end of ``fit``, so
``predict``/``staged_predict`` descend every stage for every query row in
one vectorized traversal instead of looping over stage estimators in
Python.
"""

from __future__ import annotations

import numpy as np

from repro.ml._packed import PackedForest
from repro.ml.base import BaseEstimator, RegressorMixin
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_array, check_is_fitted, check_X_y

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor(BaseEstimator, RegressorMixin):
    """Least-squares gradient boosting with CART base learners.

    Parameters
    ----------
    n_estimators:
        Number of boosting stages.
    learning_rate:
        Shrinkage applied to each stage's contribution.
    max_depth:
        Depth of the shallow base trees.
    subsample:
        Fraction of the training set drawn (without replacement) for each
        stage; values < 1 give stochastic gradient boosting.
    min_samples_leaf:
        Minimum samples per leaf of the base trees.
    random_state:
        Seed for the per-stage subsampling and tree randomness.
    """

    def __init__(self, *, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, subsample: float = 1.0,
                 min_samples_leaf: int = 1, random_state=None) -> None:
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state
        self.estimators_: list[DecisionTreeRegressor] | None = None
        self.packed_: PackedForest | None = None
        self.init_prediction_: float | None = None
        self.train_score_: list[float] | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X, y) -> GradientBoostingRegressor:
        """Fit the boosting stages to the least-squares residuals."""
        X, y = check_X_y(X, y)
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {self.subsample}")
        self.n_features_in_ = X.shape[1]
        n = X.shape[0]

        self.init_prediction_ = float(y.mean())
        current = np.full(n, self.init_prediction_)
        seeds = spawn_seeds(self.random_state, self.n_estimators)
        self.estimators_ = []
        self.train_score_ = []
        n_sub = max(1, int(round(self.subsample * n)))
        for stage in range(self.n_estimators):
            residual = y - current
            rng = np.random.default_rng(seeds[stage])
            idx = rng.permutation(n)[:n_sub] if n_sub < n else np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=seeds[stage],
            )
            tree.fit(X[idx], residual[idx])
            current = current + self.learning_rate * tree.tree_.predict(X)
            self.estimators_.append(tree)
            self.train_score_.append(float(np.mean((y - current) ** 2)))
        self.packed_ = PackedForest([tree.tree_ for tree in self.estimators_])
        return self

    def _stage_values(self, X) -> np.ndarray:
        """Per-stage raw leaf values, ``(n_samples, n_estimators)``."""
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        return self.packed_.predict_all(X)

    def predict(self, X) -> np.ndarray:
        """Sum the shrunken stage predictions on top of the initial constant."""
        values = self._stage_values(X)
        return self.init_prediction_ + self.learning_rate * values.sum(axis=1)

    def staged_predict(self, X):
        """Yield predictions after each boosting stage (for early-stopping studies)."""
        cumulative = np.cumsum(self._stage_values(X), axis=1)
        for stage in range(cumulative.shape[1]):
            yield self.init_prediction_ + self.learning_rate * cumulative[:, stage]
