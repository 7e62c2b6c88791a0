"""Tree ensembles: random forests and extremely randomized trees.

Both estimators average many :class:`~repro.ml.tree.DecisionTreeRegressor`
instances; they differ in how individual trees are randomized:

* **Random forest** (Breiman): each tree is trained on a bootstrap sample
  of the training set and, at every split, only a random subset of the
  features is examined with the exhaustive ``"best"`` splitter.
* **Extra trees** (Geurts et al.): trees are trained on the whole training
  set (no bootstrap by default) and split thresholds are drawn uniformly
  at random (``"random"`` splitter), which further reduces variance.

Extra trees is the model the paper selects for its hybrid approach after
the comparison in Figure 3.

All trees of a forest grow together, one depth level at a time, on the
builder a single tree uses
(:func:`repro.ml._batched.build_forest_batched`).  Prediction always
goes through a :class:`PackedForest` (:mod:`repro.ml._packed`),
descending every tree for every query row in a single vectorized
traversal.
"""

from __future__ import annotations

import numpy as np

from repro.ml import _batched
from repro.ml._packed import PackedForest
from repro.ml.base import BaseEstimator, RegressorMixin
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import check_random_state, spawn_seeds
from repro.utils.validation import check_array, check_is_fitted, check_X_y

__all__ = ["RandomForestRegressor", "ExtraTreesRegressor", "BaseForestRegressor"]


class BaseForestRegressor(BaseEstimator, RegressorMixin):
    """Shared fitting/prediction machinery for tree ensembles."""

    # Subclasses fix these two class attributes.
    _splitter = "best"
    _default_bootstrap = True

    def __init__(
        self,
        *,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        bootstrap: bool | None = None,
        oob_score: bool = False,
        random_state=None,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state
        self.estimators_: list[DecisionTreeRegressor] | None = None
        self.packed_: PackedForest | None = None
        self.n_features_in_: int | None = None
        self.oob_prediction_: np.ndarray | None = None
        self.oob_score_: float | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X, y) -> BaseForestRegressor:
        """Fit ``n_estimators`` randomized trees."""
        X, y = check_X_y(X, y)
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        self.n_features_in_ = X.shape[1]
        bootstrap = self._default_bootstrap if self.bootstrap is None else self.bootstrap
        if self.oob_score and not bootstrap:
            raise ValueError("oob_score requires bootstrap=True")
        n = X.shape[0]
        seeds = spawn_seeds(self.random_state, 2 * self.n_estimators)
        tree_seeds = seeds[: self.n_estimators]
        sample_seeds = seeds[self.n_estimators:]

        sample_sets: list[np.ndarray] = []
        for i in range(self.n_estimators):
            if bootstrap:
                rng = check_random_state(sample_seeds[i])
                sample_sets.append(rng.integers(0, n, size=n))
            else:
                sample_sets.append(np.arange(n))

        template = DecisionTreeRegressor(max_features=self.max_features)
        # Read off the module at call time, so a patched builder (the
        # engine benchmark's frozen reference) takes effect here too.
        trees = _batched.build_forest_batched(
            X, y,
            sample_sets=sample_sets,
            seeds=tree_seeds,
            splitter=self._splitter,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=template._resolve_max_features(X.shape[1]),
            min_impurity_decrease=0.0,
        )
        self.estimators_ = []
        for seed, tree in zip(tree_seeds, trees, strict=True):
            shell = self._make_tree(seed)
            shell.tree_ = tree
            shell.n_features_in_ = X.shape[1]
            self.estimators_.append(shell)
        self.packed_ = PackedForest(trees)

        if self.oob_score:
            self._compute_oob(X, y, sample_sets)
        return self

    def _make_tree(self, seed) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            splitter=self._splitter,
            random_state=seed,
        )

    def _check_X(self, X) -> np.ndarray:
        """*X* as a validated array of the width the forest was fitted on."""
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the forest was fitted with "
                f"{self.n_features_in_}"
            )
        return X

    def predict(self, X) -> np.ndarray:
        """Average the predictions of all trees."""
        X = self._check_X(X)
        return self.packed_.predict(X)

    def predict_std(self, X) -> np.ndarray:
        """Per-sample standard deviation across trees (ensemble uncertainty)."""
        X = self._check_X(X)
        return self.packed_.predict_std(X)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-based importances over the ensemble."""
        check_is_fitted(self, "estimators_")
        importances = np.zeros(self.n_features_in_, dtype=np.float64)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        importances /= len(self.estimators_)
        total = importances.sum()
        return importances / total if total > 0 else importances

    # ------------------------------------------------------------------ #
    def _compute_oob(self, X: np.ndarray, y: np.ndarray,
                     sample_sets: list[np.ndarray]) -> None:
        from repro.ml.metrics import r2_score

        n = X.shape[0]
        oob_mask = np.ones((n, len(self.estimators_)), dtype=bool)
        for i, idx in enumerate(sample_sets):
            oob_mask[idx, i] = False
        sums = np.where(oob_mask, self.packed_.predict_all(X), 0.0).sum(axis=1)
        counts = oob_mask.sum(axis=1).astype(np.float64)
        covered = counts > 0
        oob = np.full(n, np.nan)
        oob[covered] = sums[covered] / counts[covered]
        self.oob_prediction_ = oob
        if np.all(covered):
            self.oob_score_ = r2_score(y, oob)
        elif np.any(covered):
            self.oob_score_ = r2_score(y[covered], oob[covered])
        else:
            self.oob_score_ = np.nan


class RandomForestRegressor(BaseForestRegressor):
    """Breiman random forest: bootstrap + best-split trees on feature subsets."""

    _splitter = "best"
    _default_bootstrap = True


class ExtraTreesRegressor(BaseForestRegressor):
    """Extremely randomized trees: random thresholds, no bootstrap by default.

    This is the estimator the paper's hybrid model builds on (Section V:
    "extra trees model is the best performing").
    """

    _splitter = "random"
    _default_bootstrap = False

    def __init__(
        self,
        *,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        bootstrap: bool | None = None,
        oob_score: bool = False,
        random_state=None,
    ) -> None:
        super().__init__(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            bootstrap=bootstrap,
            oob_score=oob_score,
            random_state=random_state,
        )
