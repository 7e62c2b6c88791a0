"""Tests for repro.ml.boosting."""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.metrics import r2_score
from repro.utils.validation import NotFittedError


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(8)
    X = rng.uniform(0, 6, size=(300, 3))
    y = np.sin(X[:, 0]) * 3 + 0.5 * X[:, 1] + 0.05 * rng.normal(size=300)
    return X[:220], y[:220], X[220:], y[220:]


class TestGradientBoosting:
    def test_fit_predict_generalization(self, data):
        Xtr, ytr, Xte, yte = data
        model = GradientBoostingRegressor(n_estimators=80, learning_rate=0.1,
                                          max_depth=3, random_state=0).fit(Xtr, ytr)
        assert r2_score(yte, model.predict(Xte)) > 0.9

    def test_more_stages_reduce_training_error(self, data):
        Xtr, ytr, _, _ = data
        model = GradientBoostingRegressor(n_estimators=50, random_state=0).fit(Xtr, ytr)
        scores = model.train_score_
        assert scores[-1] < scores[0]
        assert len(scores) == 50

    def test_single_stage_near_constant(self, data):
        Xtr, ytr, Xte, _ = data
        model = GradientBoostingRegressor(n_estimators=1, learning_rate=0.1,
                                          random_state=0).fit(Xtr, ytr)
        preds = model.predict(Xte)
        # One shrunken stage stays close to the initial mean prediction.
        assert np.all(np.abs(preds - ytr.mean()) < np.abs(ytr - ytr.mean()).max())

    def test_staged_predict_improves(self, data):
        Xtr, ytr, Xte, yte = data
        model = GradientBoostingRegressor(n_estimators=40, random_state=0).fit(Xtr, ytr)
        staged = list(model.staged_predict(Xte))
        assert len(staged) == 40
        first_r2 = r2_score(yte, staged[0])
        last_r2 = r2_score(yte, staged[-1])
        assert last_r2 > first_r2

    def test_stochastic_subsample(self, data):
        Xtr, ytr, Xte, yte = data
        model = GradientBoostingRegressor(n_estimators=60, subsample=0.5,
                                          random_state=0).fit(Xtr, ytr)
        assert r2_score(yte, model.predict(Xte)) > 0.8

    def test_deterministic(self, data):
        Xtr, ytr, Xte, _ = data
        p1 = GradientBoostingRegressor(n_estimators=20, random_state=4).fit(Xtr, ytr).predict(Xte)
        p2 = GradientBoostingRegressor(n_estimators=20, random_state=4).fit(Xtr, ytr).predict(Xte)
        np.testing.assert_array_equal(p1, p2)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            GradientBoostingRegressor().predict([[1.0]])

    @pytest.mark.parametrize("kwargs", [
        dict(n_estimators=0), dict(learning_rate=0.0), dict(subsample=0.0),
        dict(subsample=1.5),
    ])
    def test_invalid_parameters(self, data, kwargs):
        Xtr, ytr, _, _ = data
        with pytest.raises(ValueError):
            GradientBoostingRegressor(**kwargs).fit(Xtr, ytr)

    def test_packed_predict_matches_stage_loop(self, data):
        """The packed-arena predict equals the per-stage Python loop."""
        Xtr, ytr, Xte, _ = data
        model = GradientBoostingRegressor(n_estimators=30, random_state=1).fit(Xtr, ytr)
        assert model.packed_.n_trees == 30
        loop = np.full(Xte.shape[0], model.init_prediction_)
        for tree in model.estimators_:
            loop += model.learning_rate * tree.tree_.predict(Xte)
        np.testing.assert_allclose(model.predict(Xte), loop, rtol=1e-12, atol=1e-12)

    def test_packed_staged_predict_matches_stage_loop(self, data):
        Xtr, ytr, Xte, _ = data
        model = GradientBoostingRegressor(n_estimators=12, random_state=2).fit(Xtr, ytr)
        loop = np.full(Xte.shape[0], model.init_prediction_)
        for staged, tree in zip(model.staged_predict(Xte), model.estimators_, strict=True):
            loop = loop + model.learning_rate * tree.tree_.predict(Xte)
            np.testing.assert_allclose(staged, loop, rtol=1e-12, atol=1e-12)

    def test_works_inside_hybrid_model(self, small_stencil_dataset):
        from repro.analytical import StencilAnalyticalModel
        from repro.core import HybridPerformanceModel

        data = small_stencil_dataset
        train, test = data.train_test_indices(train_fraction=0.2, random_state=0)
        model = HybridPerformanceModel(
            analytical_model=StencilAnalyticalModel(),
            feature_names=data.feature_names,
            ml_model=GradientBoostingRegressor(n_estimators=40, random_state=0),
            random_state=0,
        ).fit(data.X[train], data.y[train])
        preds = model.predict(data.X[test])
        assert np.all(np.isfinite(preds))
