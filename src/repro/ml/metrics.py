"""Regression metrics.

Mean Absolute Percentage Error (MAPE) is the score the paper reports in
every figure; R² backs the estimators' ``score`` method.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mean_absolute_percentage_error", "r2_score"]


def _validate(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"y_true and y_pred have different shapes: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("empty arrays passed to a metric")
    if not (np.all(np.isfinite(y_true)) and np.all(np.isfinite(y_pred))):
        raise ValueError("metrics require finite y_true and y_pred")
    return y_true, y_pred


def mean_absolute_percentage_error(y_true, y_pred, *, as_percent: bool = True) -> float:
    """Mean Absolute Percentage Error.

    ``MAPE = mean(|y_true - y_pred| / max(|y_true|, eps))``, reported in
    percent by default (as in the paper's figures).  Targets are execution
    times and therefore strictly positive in practice; the ``eps`` guard
    only protects against degenerate synthetic inputs.
    """
    y_true, y_pred = _validate(y_true, y_pred)
    eps = np.finfo(np.float64).eps
    ratio = np.abs(y_true - y_pred) / np.maximum(np.abs(y_true), eps)
    mape = float(np.mean(ratio))
    return 100.0 * mape if as_percent else mape


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination R².

    Returns 0.0 when ``y_true`` is constant and predictions are exact, and
    a large negative value when they are not (matching common convention).
    """
    y_true, y_pred = _validate(y_true, y_pred)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if ss_tot == 0.0:
        return 0.0 if ss_res == 0.0 else -np.inf
    return 1.0 - ss_res / ss_tot
