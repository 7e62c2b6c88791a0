"""Bootstrap-aggregation (bagging) ensemble.

Bagging "generates multiple versions of a predictor and uses these to get
an aggregated prediction" (Breiman, 1996) — the paper uses it both as a
baseline ML technique and as the final aggregation stage of the hybrid
model (Section VI), where it also aggregates the analytical-model
prediction with the stacked-model prediction.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin, clone
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import check_random_state, spawn_seeds
from repro.utils.validation import check_array, check_is_fitted, check_X_y

__all__ = ["BaggingRegressor"]


class BaggingRegressor(BaseEstimator, RegressorMixin):
    """Bag an arbitrary base regressor.

    Parameters
    ----------
    estimator:
        The base regressor to replicate (defaults to a CART tree).
    n_estimators:
        Number of bootstrap replicas.
    max_samples:
        Size of each bootstrap sample as a fraction of the training set
        (float in (0, 1]) or an absolute count (int).
    max_features:
        Number (int) or fraction (float) of features drawn for each
        replica; features are sampled without replacement.
    bootstrap:
        Whether samples are drawn with replacement.
    random_state:
        Seed for all resampling.
    """

    def __init__(
        self,
        *,
        estimator: BaseEstimator | None = None,
        n_estimators: int = 10,
        max_samples: float | int = 1.0,
        max_features: float | int = 1.0,
        bootstrap: bool = True,
        random_state=None,
    ) -> None:
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list[BaseEstimator] | None = None
        self.estimators_features_: list[np.ndarray] | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X, y) -> BaggingRegressor:
        """Fit ``n_estimators`` replicas on bootstrap samples."""
        X, y = check_X_y(X, y)
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        n, d = X.shape
        self.n_features_in_ = d
        n_samples = self._resolve_count(self.max_samples, n, "max_samples")
        n_features = self._resolve_count(self.max_features, d, "max_features")

        base = self.estimator if self.estimator is not None else DecisionTreeRegressor()
        seeds = spawn_seeds(self.random_state, self.n_estimators)

        sample_sets: list[np.ndarray] = []
        feature_sets: list[np.ndarray] = []
        for i in range(self.n_estimators):
            rng = check_random_state(seeds[i])
            if self.bootstrap:
                sample_sets.append(rng.integers(0, n, size=n_samples))
            else:
                sample_sets.append(rng.permutation(n)[:n_samples])
            feature_sets.append(np.sort(rng.permutation(d)[:n_features]))

        self.estimators_ = []
        for seed, idx, feats in zip(seeds, sample_sets, feature_sets, strict=True):
            est = clone(base)
            if "random_state" in est.get_params(deep=False):
                est.set_params(random_state=seed)
            self.estimators_.append(est.fit(X[np.ix_(idx, feats)], y[idx]))
        self.estimators_features_ = feature_sets
        return self

    def _check_X(self, X) -> np.ndarray:
        """*X* as a validated array of the width the ensemble was fitted on."""
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the ensemble was fitted with "
                f"{self.n_features_in_}"
            )
        return X

    def predict(self, X) -> np.ndarray:
        """Average the replicas' predictions."""
        X = self._check_X(X)
        preds = np.zeros(X.shape[0], dtype=np.float64)
        for est, feats in zip(self.estimators_, self.estimators_features_,
                              strict=True):
            preds += est.predict(X[:, feats])
        return preds / len(self.estimators_)

    def predict_std(self, X) -> np.ndarray:
        """Per-sample standard deviation across replicas."""
        X = self._check_X(X)
        all_preds = np.stack([
            est.predict(X[:, feats])
            for est, feats in zip(self.estimators_, self.estimators_features_,
                                  strict=True)
        ])
        return all_preds.std(axis=0)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_count(value, total: int, name: str) -> int:
        if isinstance(value, float):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"float {name} must be in (0, 1], got {value}")
            return max(1, int(round(value * total)))
        value = int(value)
        if not 1 <= value <= total:
            raise ValueError(f"{name} must be in [1, {total}], got {value}")
        return value
