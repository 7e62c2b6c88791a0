"""Feature standardization.

Section V: "we apply preprocessing transformation to a standard Gaussian
distribution with zero mean and unit variance" — that is
:class:`StandardScaler`.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, TransformerMixin
from repro.utils.validation import check_array, check_is_fitted

__all__ = ["StandardScaler"]


class StandardScaler(BaseEstimator, TransformerMixin):
    """Standardize features to zero mean and unit variance.

    Constant features (zero variance) are left centred but unscaled, so
    transforming never divides by zero.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None
        self.n_features_in_: int | None = None

    def fit(self, X, y=None) -> StandardScaler:
        """Learn per-feature mean and standard deviation."""
        X = check_array(X)
        self.n_features_in_ = X.shape[1]
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X) -> np.ndarray:
        """Standardize *X* with the fitted statistics."""
        check_is_fitted(self, ["mean_", "scale_"])
        X = check_array(X)
        self._check_n_features(X)
        return (X - self.mean_) / self.scale_

    def inverse_transform(self, X) -> np.ndarray:
        """Map standardized data back to the original scale."""
        check_is_fitted(self, ["mean_", "scale_"])
        X = check_array(X)
        self._check_n_features(X)
        return X * self.scale_ + self.mean_

    def _check_n_features(self, X: np.ndarray) -> None:
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but {type(self).__name__} was "
                f"fitted with {self.n_features_in_}"
            )

