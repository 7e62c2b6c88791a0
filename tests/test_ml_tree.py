"""Tests for repro.ml.tree (CART regression trees)."""

import numpy as np
import pytest

from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.validation import NotFittedError


@pytest.fixture(scope="module")
def simple_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, size=(300, 3))
    y = np.where(X[:, 0] > 5, 10.0, 1.0) + 0.5 * X[:, 1]
    return X, y


class TestFitPredict:
    def test_overfits_training_data_when_unrestricted(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.999

    def test_generalizes_on_step_function(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(max_depth=6, random_state=0).fit(X[:200], y[:200])
        assert r2_score(y[200:], model.predict(X[200:])) > 0.9

    def test_single_sample_returns_constant(self):
        model = DecisionTreeRegressor().fit([[1.0, 2.0]], [5.0])
        assert model.predict([[3.0, 4.0]])[0] == pytest.approx(5.0)

    def test_constant_target(self):
        X = np.random.default_rng(1).random((20, 2))
        model = DecisionTreeRegressor().fit(X, np.full(20, 7.0))
        np.testing.assert_allclose(model.predict(X), 7.0)
        assert model.get_n_leaves() == 1

    def test_random_splitter_also_fits(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(splitter="random", random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.99

    def test_deterministic_given_seed(self, simple_data):
        X, y = simple_data
        p1 = DecisionTreeRegressor(splitter="random", random_state=3).fit(X, y).predict(X)
        p2 = DecisionTreeRegressor(splitter="random", random_state=3).fit(X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)

    def test_predictions_within_target_range(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(random_state=0).fit(X, y)
        preds = model.predict(X + 100.0)  # far outside the training domain
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12


class TestHyperparameters:
    def test_max_depth_limits_depth(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(max_depth=3, random_state=0).fit(X, y)
        assert model.get_depth() <= 3

    def test_min_samples_leaf_respected(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(min_samples_leaf=20, random_state=0).fit(X, y)
        leaf_ids = model.apply(X)
        _, counts = np.unique(leaf_ids, return_counts=True)
        assert counts.min() >= 20

    def test_min_samples_split(self, simple_data):
        X, y = simple_data
        big = DecisionTreeRegressor(min_samples_split=100, random_state=0).fit(X, y)
        small = DecisionTreeRegressor(min_samples_split=2, random_state=0).fit(X, y)
        assert big.get_n_leaves() < small.get_n_leaves()

    def test_min_impurity_decrease_prunes(self, simple_data):
        X, y = simple_data
        loose = DecisionTreeRegressor(random_state=0).fit(X, y)
        strict = DecisionTreeRegressor(min_impurity_decrease=1.0, random_state=0).fit(X, y)
        assert strict.get_n_leaves() < loose.get_n_leaves()

    @pytest.mark.parametrize("max_features", [1, 2, "sqrt", "log2", 0.5, None])
    def test_max_features_variants(self, simple_data, max_features):
        X, y = simple_data
        model = DecisionTreeRegressor(max_features=max_features, random_state=0).fit(X, y)
        assert model.predict(X).shape == y.shape

    @pytest.mark.parametrize("kwargs", [
        dict(max_depth=0), dict(min_samples_split=1), dict(min_samples_leaf=0),
        dict(splitter="weird"), dict(min_impurity_decrease=-1.0),
        dict(max_features=0), dict(max_features=2.0), dict(max_features="cube"),
    ])
    def test_invalid_hyperparameters(self, simple_data, kwargs):
        X, y = simple_data
        with pytest.raises(ValueError):
            DecisionTreeRegressor(**kwargs).fit(X, y)


class TestTreeStructure:
    def test_feature_importances_sum_to_one(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(random_state=0).fit(X, y)
        importances = model.feature_importances_
        assert importances.shape == (3,)
        assert importances.sum() == pytest.approx(1.0)
        # The step feature dominates the target, so it should dominate importances.
        assert np.argmax(importances) == 0

    def test_apply_returns_leaves(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y)
        leaves = model.apply(X)
        tree = model.tree_
        assert np.all(tree.feature[leaves] == -1)

    def test_apply_checks_the_width_as_predict_does(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y)
        for wrong in (np.hstack([X, X[:, :1]]), X[:, :-1]):
            for method in (model.predict, model.apply):
                with pytest.raises(ValueError, match="features"):
                    method(wrong)

    def test_node_count_consistency(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(max_depth=5, random_state=0).fit(X, y)
        tree = model.tree_
        internal = np.sum(tree.feature >= 0)
        assert tree.node_count == internal + tree.n_leaves


class TestValidation:
    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_feature_count_mismatch(self, simple_data):
        X, y = simple_data
        model = DecisionTreeRegressor(random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(X[:, :2])

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit([[np.nan]], [1.0])
