"""Tests for repro.ml.pipeline."""

import numpy as np
import pytest

from repro.ml.metrics import r2_score
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.validation import NotFittedError


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(9)
    X = rng.uniform(-3, 3, size=(150, 2)) * np.array([1.0, 100.0])
    y = X[:, 0] + X[:, 1] / 100.0
    return X, y


class TestPipeline:
    def test_fit_predict(self, data):
        X, y = data
        pipe = Pipeline(steps=[("scale", StandardScaler()),
                               ("tree", DecisionTreeRegressor(random_state=0))])
        pipe.fit(X, y)
        assert r2_score(y, pipe.predict(X)) > 0.999

    def test_steps_are_cloned_not_mutated(self, data):
        X, y = data
        scaler = StandardScaler()
        pipe = Pipeline(steps=[("scale", scaler), ("tree", DecisionTreeRegressor())]).fit(X, y)
        assert scaler.mean_ is None            # original untouched
        assert pipe.named_steps["scale"].mean_ is not None

    def test_transform_requires_final_transformer(self, data):
        X, y = data
        pipe = Pipeline(steps=[("s1", StandardScaler()), ("s2", StandardScaler())]).fit(X)
        Z = pipe.transform(X)
        assert Z.shape == X.shape
        pipe2 = Pipeline(steps=[("s", StandardScaler()),
                                ("knn", KNeighborsRegressor())]).fit(X, y)
        with pytest.raises(AttributeError):
            pipe2.transform(X)

    def test_predict_before_fit_raises(self):
        pipe = Pipeline(steps=[("scale", StandardScaler()), ("tree", DecisionTreeRegressor())])
        with pytest.raises(NotFittedError):
            pipe.predict([[1.0]])

    def test_named_steps_before_fit_raises(self):
        pipe = Pipeline(steps=[("tree", DecisionTreeRegressor())])
        with pytest.raises(NotFittedError):
            _ = pipe.named_steps

    def test_scaling_matters_for_scale_sensitive_models(self, data):
        X, y = data
        raw = KNeighborsRegressor(n_neighbors=3).fit(X, y)
        piped = Pipeline(steps=[("scale", StandardScaler()),
                                ("knn", KNeighborsRegressor(n_neighbors=3))]).fit(X, y)
        assert r2_score(y, piped.predict(X)) >= r2_score(y, raw.predict(X))

    def test_duplicate_step_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline(steps=[("a", StandardScaler()),
                            ("a", DecisionTreeRegressor())]).fit([[1.0]], [1.0])

    def test_empty_pipeline(self):
        with pytest.raises(ValueError):
            Pipeline(steps=[]).fit([[1.0]], [1.0])

    def test_intermediate_step_must_transform(self):
        with pytest.raises(TypeError):
            Pipeline(steps=[("tree", DecisionTreeRegressor()),
                            ("knn", KNeighborsRegressor())]).fit([[1.0], [2.0]], [1.0, 2.0])

    def test_final_step_must_predict_or_transform(self):
        with pytest.raises(TypeError, match="final step 'last'"):
            Pipeline(steps=[("scale", StandardScaler()),
                            ("last", object())]).fit([[1.0], [2.0]], [1.0, 2.0])
