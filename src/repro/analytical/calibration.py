"""Least-squares calibration of analytical predictions against measurements.

Section VII of the paper stresses that the analytical models are *not*
tuned before being used in the hybrid framework ("we do not tune the
analytical models as our goal here is to study the effect of using
inaccurate analytical models").  The analytical-quality ablation still
reports the MAPE of a rescaled model, to show how much of the analytical
model's error a single scale factor removes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["calibrate_scale"]


def calibrate_scale(predictions: np.ndarray, measurements: np.ndarray) -> float:
    """Least-squares multiplicative factor aligning predictions to measurements.

    Minimizes ``sum (s * p_i - m_i)^2`` over the scalar ``s``; with
    strictly positive predictions this is ``<p, m> / <p, p>``.
    """
    predictions = np.asarray(predictions, dtype=np.float64).ravel()
    measurements = np.asarray(measurements, dtype=np.float64).ravel()
    if predictions.shape != measurements.shape:
        raise ValueError("predictions and measurements must have the same shape")
    if predictions.size == 0:
        raise ValueError("cannot calibrate on an empty sample")
    denom = float(predictions @ predictions)
    if denom == 0.0:
        raise ValueError("predictions are identically zero; cannot calibrate")
    return float(predictions @ measurements / denom)

