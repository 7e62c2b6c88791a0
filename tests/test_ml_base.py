"""Tests for repro.ml.base (parameter introspection and clone)."""

import numpy as np
import pytest

from repro.ml.bagging import BaggingRegressor
from repro.ml.base import BaseEstimator, clone
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


class TestGetSetParams:
    def test_get_params_returns_init_arguments(self):
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=2)
        params = tree.get_params()
        assert params["max_depth"] == 3
        assert params["min_samples_leaf"] == 2

    def test_set_params_roundtrip(self):
        tree = DecisionTreeRegressor()
        tree.set_params(max_depth=5)
        assert tree.max_depth == 5

    def test_set_params_invalid_key(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            DecisionTreeRegressor().set_params(bogus=1)

    def test_nested_params(self):
        bag = BaggingRegressor(estimator=DecisionTreeRegressor(max_depth=3))
        params = bag.get_params(deep=True)
        assert params["estimator__max_depth"] == 3
        bag.set_params(estimator__max_depth=5)
        assert bag.estimator.max_depth == 5

    def test_set_params_without_arguments_changes_nothing(self):
        tree = DecisionTreeRegressor(max_depth=3)
        assert tree.set_params() is tree
        assert tree.get_params() == DecisionTreeRegressor(max_depth=3).get_params()

    def test_nested_key_with_unknown_outer_name_rejected(self):
        bag = BaggingRegressor(estimator=DecisionTreeRegressor(max_depth=3))
        with pytest.raises(ValueError, match="invalid parameter 'base'"):
            bag.set_params(base__max_depth=5)
        assert bag.estimator.max_depth == 3

    def test_nested_key_on_a_plain_parameter_rejected(self):
        with pytest.raises(ValueError, match="'max_depth' is not an estimator"):
            DecisionTreeRegressor(max_depth=3).set_params(max_depth__value=5)

    def test_estimator_without_init_has_no_params(self):
        class Constant(BaseEstimator):
            pass

        model = Constant()
        assert model.get_params() == {}
        assert repr(model) == "Constant()"
        copy = clone(model)
        assert type(copy) is Constant and copy is not model

    def test_repr_contains_class_and_params(self):
        text = repr(DecisionTreeRegressor(max_depth=2))
        assert "DecisionTreeRegressor" in text and "max_depth=2" in text


class TestClone:
    def test_clone_copies_params_not_state(self):
        rng = np.random.default_rng(0)
        X = rng.random((50, 3))
        y = X @ np.array([1.0, 2.0, 3.0])
        model = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y)
        copy = clone(model)
        assert copy.max_depth == 4
        assert copy.tree_ is None  # unfitted

    def test_clone_nested_estimator(self):
        bag = BaggingRegressor(estimator=DecisionTreeRegressor(max_depth=3))
        copy = clone(bag)
        assert copy.estimator is not bag.estimator
        assert copy.estimator.max_depth == 3

    def test_clone_rejects_non_estimator(self):
        with pytest.raises(TypeError):
            clone("not an estimator")


class TestRegressorScore:
    def test_score_is_r2(self):
        rng = np.random.default_rng(1)
        X = rng.random((100, 2))
        y = 3 * X[:, 0] - X[:, 1]
        model = DecisionTreeRegressor(max_depth=3, random_state=0).fit(X, y)
        assert model.score(X, y) == pytest.approx(r2_score(y, model.predict(X)))
        # Fully grown on distinct rows, the tree fits its training set exactly.
        assert DecisionTreeRegressor(random_state=0).fit(X, y).score(X, y) == 1.0
