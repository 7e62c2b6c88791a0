"""Input-validation helpers shared by the ML substrate and the core library.

These mirror the checks performed by scikit-learn's ``check_array`` /
``check_X_y`` utilities closely enough for the estimators in
:mod:`repro.ml`, without pulling in scikit-learn itself.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "NotFittedError",
]


class NotFittedError(RuntimeError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


def check_array(X, *, ensure_2d: bool = True, dtype=np.float64, name: str = "X") -> np.ndarray:
    """Validate an input array.

    Converts *X* to a contiguous ndarray of *dtype*, rejects NaN/inf values
    and (optionally) enforces 2-D shape with at least one sample and one
    feature.
    """
    arr = np.asarray(X, dtype=dtype)
    if ensure_2d:
        if arr.ndim == 1:
            raise ValueError(
                f"{name} must be 2-D (n_samples, n_features); got a 1-D array. "
                "Reshape with X.reshape(-1, 1) for a single feature."
            )
        if arr.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] == 0:
            raise ValueError(f"{name} has 0 samples")
        if arr.shape[1] == 0:
            raise ValueError(f"{name} has 0 features")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix / target vector pair."""
    X = check_array(X, ensure_2d=True, name="X")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 2 and y.shape[1] == 1:
        y = y.ravel()
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains NaN or infinite values")
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X and y have inconsistent lengths: {X.shape[0]} != {y.shape[0]}"
        )
    return X, y


def check_is_fitted(estimator, attributes) -> None:
    """Raise :class:`NotFittedError` unless *estimator* has all *attributes* set."""
    if isinstance(attributes, str):
        attributes = [attributes]
    missing = [a for a in attributes if getattr(estimator, a, None) is None]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; "
            f"call fit() before using this method (missing: {', '.join(missing)})"
        )
