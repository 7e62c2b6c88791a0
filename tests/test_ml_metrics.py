"""Tests for repro.ml.metrics."""

import numpy as np
import pytest

from repro.ml.metrics import mean_absolute_percentage_error, r2_score


class TestMape:
    def test_exact_predictions_give_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mean_absolute_percentage_error(y, y) == 0.0

    def test_known_value(self):
        y_true = np.array([100.0, 200.0])
        y_pred = np.array([110.0, 180.0])
        # 10% and 10% -> 10%
        assert mean_absolute_percentage_error(y_true, y_pred) == pytest.approx(10.0)

    def test_fraction_mode(self):
        y_true = np.array([10.0])
        y_pred = np.array([15.0])
        assert mean_absolute_percentage_error(y_true, y_pred, as_percent=False) == pytest.approx(0.5)

    def test_one_outlier_dominates(self):
        y_true = np.array([1.0, 1.0, 1.0, 1.0])
        y_pred = np.array([1.0, 1.0, 1.0, 100.0])
        assert mean_absolute_percentage_error(y_true, y_pred) == pytest.approx(2475.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([], [])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [np.nan])


class TestOtherMetrics:
    def test_r2_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == pytest.approx(1.0)

    def test_r2_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, y.mean())
        assert r2_score(y, pred) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        y = np.array([2.0, 2.0])
        assert r2_score(y, y) == 0.0
        assert r2_score(y, np.array([1.0, 3.0])) == -np.inf
