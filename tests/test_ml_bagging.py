"""Tests for repro.ml.bagging."""

import numpy as np
import pytest

from repro.ml.bagging import BaggingRegressor
from repro.ml.metrics import r2_score
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import check_random_state, spawn_seeds
from repro.utils.validation import NotFittedError


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    X = rng.uniform(-2, 2, size=(250, 3))
    y = X[:, 0] * X[:, 1] + np.abs(X[:, 2]) + 0.05 * rng.normal(size=250)
    return X[:180], y[:180], X[180:], y[180:]


class TestBaggingRegressor:
    def test_default_base_is_tree(self, data):
        Xtr, ytr, Xte, yte = data
        model = BaggingRegressor(n_estimators=15, random_state=0).fit(Xtr, ytr)
        assert all(isinstance(est, DecisionTreeRegressor) for est in model.estimators_)
        assert r2_score(yte, model.predict(Xte)) > 0.5

    def test_custom_base_estimator(self, data):
        """A base without ``random_state`` (k-NN) is replicated unseeded."""
        Xtr, ytr, Xte, _ = data
        base = KNeighborsRegressor(n_neighbors=3)
        model = BaggingRegressor(estimator=base, n_estimators=5,
                                 random_state=0).fit(Xtr, ytr)
        assert all(isinstance(est, KNeighborsRegressor) for est in model.estimators_)
        assert all(est is not base and est.get_params() == base.get_params()
                   for est in model.estimators_)
        assert model.predict(Xte).shape == (len(Xte),)

    def test_bagging_reduces_variance_vs_single_tree(self, data):
        Xtr, ytr, Xte, yte = data
        tree_scores = []
        bag_scores = []
        for seed in range(3):
            idx = np.random.default_rng(seed).integers(0, len(Xtr), len(Xtr))
            tree = DecisionTreeRegressor(random_state=seed).fit(Xtr[idx], ytr[idx])
            bag = BaggingRegressor(n_estimators=15, random_state=seed).fit(Xtr[idx], ytr[idx])
            tree_scores.append(r2_score(yte, tree.predict(Xte)))
            bag_scores.append(r2_score(yte, bag.predict(Xte)))
        assert np.mean(bag_scores) >= np.mean(tree_scores)

    def test_max_samples_and_features(self, data):
        Xtr, ytr, Xte, _ = data
        model = BaggingRegressor(n_estimators=4, max_samples=0.5, max_features=2,
                                 random_state=0).fit(Xtr, ytr)
        assert all(len(feats) == 2 for feats in model.estimators_features_)
        assert model.predict(Xte).shape == (len(Xte),)

    def test_no_bootstrap_mode(self, data):
        Xtr, ytr, Xte, _ = data
        model = BaggingRegressor(n_estimators=4, bootstrap=False, max_samples=0.6,
                                 random_state=0).fit(Xtr, ytr)
        assert model.predict(Xte).shape == (len(Xte),)

    def test_predict_std(self, data):
        Xtr, ytr, Xte, _ = data
        model = BaggingRegressor(n_estimators=10, random_state=0).fit(Xtr, ytr)
        assert np.all(model.predict_std(Xte) >= 0)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_replicas_are_trees_fitted_alone_in_seed_order(self, data, bootstrap):
        """Replica *i* is the tree seeded with the *i*-th spawned seed and
        fitted on the rows and features that seed draws, bit for bit."""
        Xtr, ytr, Xte, _ = data
        model = BaggingRegressor(n_estimators=5, max_samples=120, max_features=2,
                                 bootstrap=bootstrap, random_state=6).fit(Xtr, ytr)
        n, d = Xtr.shape
        seeds = spawn_seeds(6, 5)
        for seed, est, feats in zip(seeds, model.estimators_, model.estimators_features_,
                                    strict=True):
            rng = check_random_state(seed)
            idx = rng.integers(0, n, size=120) if bootstrap else rng.permutation(n)[:120]
            np.testing.assert_array_equal(feats, np.sort(rng.permutation(d)[:2]))
            alone = DecisionTreeRegressor(random_state=seed).fit(Xtr[np.ix_(idx, feats)],
                                                                 ytr[idx])
            assert est.random_state == seed
            assert est.predict(Xte[:, feats]).tobytes() == alone.predict(Xte[:, feats]).tobytes()
            assert est.tree_.threshold.tobytes() == alone.tree_.threshold.tobytes()

    def test_determinism(self, data):
        Xtr, ytr, Xte, _ = data
        p1 = BaggingRegressor(n_estimators=6, random_state=2).fit(Xtr, ytr).predict(Xte)
        p2 = BaggingRegressor(n_estimators=6, random_state=2).fit(Xtr, ytr).predict(Xte)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("kwargs", [
        dict(n_estimators=0),
        dict(max_samples=0.0),
        dict(max_samples=2.5),
        dict(max_features=0),
        dict(max_features=99),
    ])
    def test_invalid_parameters(self, data, kwargs):
        Xtr, ytr, _, _ = data
        with pytest.raises(ValueError):
            BaggingRegressor(**kwargs).fit(Xtr, ytr)

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            BaggingRegressor().predict([[1.0, 2.0]])

    def test_feature_count_checked_at_predict(self, data):
        Xtr, ytr, _, _ = data
        model = BaggingRegressor(n_estimators=3, random_state=0).fit(Xtr, ytr)
        with pytest.raises(ValueError):
            model.predict(Xtr[:, :1])

    def test_predict_and_predict_std_check_the_width(self, data):
        Xtr, ytr, _, _ = data
        model = BaggingRegressor(n_estimators=3, max_features=0.5,
                                 random_state=0).fit(Xtr, ytr)
        wider = np.hstack([Xtr, Xtr[:, :1]])
        for X in (wider, Xtr[:, :-1]):
            for method in (model.predict, model.predict_std):
                with pytest.raises(ValueError, match="features"):
                    method(X)
