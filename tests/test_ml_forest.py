"""Tests for repro.ml.forest (random forests and extra trees)."""

import numpy as np
import pytest

from repro.ml.forest import ExtraTreesRegressor, RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.validation import NotFittedError


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 5, size=(300, 4))
    y = X[:, 0] ** 2 + np.sin(X[:, 1] * 2) + 0.1 * rng.normal(size=300)
    return X[:220], y[:220], X[220:], y[220:]


@pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
class TestForests:
    def test_fit_predict_generalization(self, data, cls):
        Xtr, ytr, Xte, yte = data
        model = cls(n_estimators=20, random_state=0).fit(Xtr, ytr)
        assert r2_score(yte, model.predict(Xte)) > 0.85

    def test_deterministic_with_seed(self, data, cls):
        Xtr, ytr, Xte, _ = data
        p1 = cls(n_estimators=10, random_state=1).fit(Xtr, ytr).predict(Xte)
        p2 = cls(n_estimators=10, random_state=1).fit(Xtr, ytr).predict(Xte)
        np.testing.assert_array_equal(p1, p2)

    def test_different_seeds_differ(self, data, cls):
        Xtr, ytr, Xte, _ = data
        p1 = cls(n_estimators=5, random_state=1).fit(Xtr, ytr).predict(Xte)
        p2 = cls(n_estimators=5, random_state=2).fit(Xtr, ytr).predict(Xte)
        assert not np.array_equal(p1, p2)

    def test_n_estimators_respected(self, data, cls):
        Xtr, ytr, _, _ = data
        model = cls(n_estimators=7, random_state=0).fit(Xtr, ytr)
        assert len(model.estimators_) == 7

    def test_predict_std_shape_and_nonnegative(self, data, cls):
        Xtr, ytr, Xte, _ = data
        model = cls(n_estimators=10, random_state=0).fit(Xtr, ytr)
        std = model.predict_std(Xte)
        assert std.shape == (len(Xte),)
        assert np.all(std >= 0)

    def test_feature_importances(self, data, cls):
        Xtr, ytr, _, _ = data
        model = cls(n_estimators=10, random_state=0).fit(Xtr, ytr)
        imp = model.feature_importances_
        assert imp.shape == (4,)
        assert imp.sum() == pytest.approx(1.0)
        # Features 0 and 1 drive the target; features 2, 3 are noise.
        assert imp[0] + imp[1] > imp[2] + imp[3]

    def test_unfitted_predict_raises(self, cls):
        with pytest.raises(NotFittedError):
            cls().predict([[0.0, 0.0, 0.0, 0.0]])

    def test_feature_mismatch(self, data, cls):
        Xtr, ytr, _, _ = data
        model = cls(n_estimators=3, random_state=0).fit(Xtr, ytr)
        with pytest.raises(ValueError):
            model.predict(Xtr[:, :2])

    def test_predict_and_predict_std_check_the_width(self, data, cls):
        Xtr, ytr, _, _ = data
        model = cls(n_estimators=3, random_state=0).fit(Xtr, ytr)
        wider = np.hstack([Xtr, Xtr[:, :1]])
        for X in (wider, Xtr[:, :-1]):
            for method in (model.predict, model.predict_std):
                with pytest.raises(ValueError, match="features"):
                    method(X)

    def test_invalid_n_estimators(self, data, cls):
        Xtr, ytr, _, _ = data
        with pytest.raises(ValueError):
            cls(n_estimators=0).fit(Xtr, ytr)

    @pytest.mark.parametrize("kwargs", [
        dict(max_depth=0),
        dict(max_depth=-1),
        dict(min_samples_split=0),
        dict(min_samples_split=1),
        dict(min_samples_leaf=0),
        dict(min_samples_leaf=-3),
    ], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
    def test_invalid_tree_hyperparameters(self, data, cls, kwargs):
        """A forest rejects what its trees reject, with the tree's message."""
        Xtr, ytr, _, _ = data
        with pytest.raises(ValueError) as tree_error:
            DecisionTreeRegressor(**kwargs).fit(Xtr, ytr)
        with pytest.raises(ValueError) as forest_error:
            cls(n_estimators=2, random_state=0, **kwargs).fit(Xtr, ytr)
        assert str(forest_error.value) == str(tree_error.value)


class TestEnsembleBehaviour:
    def test_ensemble_beats_single_tree_out_of_sample(self, data):
        Xtr, ytr, Xte, yte = data
        tree = DecisionTreeRegressor(random_state=0).fit(Xtr, ytr)
        forest = ExtraTreesRegressor(n_estimators=30, random_state=0).fit(Xtr, ytr)
        assert r2_score(yte, forest.predict(Xte)) >= r2_score(yte, tree.predict(Xte))

    def test_extra_trees_default_no_bootstrap(self, data):
        Xtr, ytr, _, _ = data
        et = ExtraTreesRegressor(n_estimators=3, random_state=0)
        rf = RandomForestRegressor(n_estimators=3, random_state=0)
        assert et._default_bootstrap is False
        assert rf._default_bootstrap is True
