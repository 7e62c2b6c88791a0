"""Tests for repro.ml.preprocessing."""

import numpy as np
import pytest

from repro.ml.preprocessing import StandardScaler
from repro.utils.validation import NotFittedError


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_inverse_transform_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.random((50, 3)) * 10
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(X)), X)

    def test_constant_feature_no_division_by_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        np.testing.assert_allclose(Z[:, 0], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform([[1.0]])

    def test_feature_count_mismatch(self):
        scaler = StandardScaler().fit(np.ones((5, 3)))
        with pytest.raises(ValueError, match="features"):
            scaler.transform(np.ones((5, 2)))

