"""Tests for repro.ml.neighbors."""

import numpy as np
import pytest

from repro.ml.neighbors import KNeighborsRegressor
from repro.utils.validation import NotFittedError


class TestKNeighborsRegressor:
    def test_one_neighbor_memorizes_training_data(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([10.0, 20.0, 30.0])
        model = KNeighborsRegressor(n_neighbors=1).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y)

    def test_uniform_weights_average(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0.0, 2.0, 100.0])
        model = KNeighborsRegressor(n_neighbors=2).fit(X, y)
        # Query at 0.4: two nearest are 0.0 and 1.0 -> mean 1.0.
        assert model.predict([[0.4]])[0] == pytest.approx(1.0)

    def test_distance_weights_favor_closer_point(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        model = KNeighborsRegressor(n_neighbors=2, weights="distance").fit(X, y)
        assert model.predict([[0.1]])[0] < 5.0

    def test_exact_match_with_distance_weights(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 6.0, 7.0])
        model = KNeighborsRegressor(n_neighbors=3, weights="distance").fit(X, y)
        assert model.predict([[1.0]])[0] == pytest.approx(6.0)

    def test_k_larger_than_dataset_is_capped(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 3.0])
        model = KNeighborsRegressor(n_neighbors=10).fit(X, y)
        assert model.predict([[0.5]])[0] == pytest.approx(2.0)

    def test_blockwise_prediction_consistency(self):
        rng = np.random.default_rng(0)
        X = rng.random((2000, 3))
        y = X.sum(axis=1)
        model = KNeighborsRegressor(n_neighbors=4).fit(X, y)
        q = rng.random((1500, 3))
        preds = model.predict(q)  # crosses the 1024 block boundary
        assert preds.shape == (1500,)
        assert np.all(np.isfinite(preds))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(n_neighbors=0).fit([[0.0]], [1.0])
        with pytest.raises(ValueError):
            KNeighborsRegressor(weights="gaussian").fit([[0.0]], [1.0])

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            KNeighborsRegressor().predict([[1.0]])

    def test_feature_mismatch(self):
        model = KNeighborsRegressor().fit([[0.0, 1.0]], [1.0])
        with pytest.raises(ValueError):
            model.predict([[1.0]])
