"""The estimator contract every regressor the experiments use honours.

A learning-curve cell clones its configured estimator and fits the clone
on rows of a dataset that every other cell of the plan shares (and that
a store may hand out as read-only arrays); the model server predicts any
concatenation of request rows, decoded from JSON lists.  Each test below
states one of those assumptions and checks it on every regressor that
the experiments, the ablations or the server use: a single tree, the two
forests, bagged trees, k-NN, the standardize-then-extra-trees pipeline
and the hybrid model.
"""

import numpy as np
import pytest

from repro.analytical import StencilAnalyticalModel
from repro.core.hybrid import HybridPerformanceModel
from repro.ml import (
    BaggingRegressor,
    DecisionTreeRegressor,
    ExtraTreesRegressor,
    KNeighborsRegressor,
    Pipeline,
    RandomForestRegressor,
    StandardScaler,
    clone,
)

MAKERS = {
    "decision_tree": lambda names: DecisionTreeRegressor(random_state=0),
    "random_forest": lambda names: RandomForestRegressor(n_estimators=5, random_state=0),
    "extra_trees": lambda names: ExtraTreesRegressor(n_estimators=5, random_state=0),
    "bagging": lambda names: BaggingRegressor(n_estimators=5, random_state=0),
    "knn": lambda names: KNeighborsRegressor(n_neighbors=3, weights="distance"),
    "pipeline": lambda names: Pipeline(steps=[
        ("scale", StandardScaler()),
        ("model", ExtraTreesRegressor(n_estimators=5, random_state=0)),
    ]),
    "hybrid": lambda names: HybridPerformanceModel(
        analytical_model=StencilAnalyticalModel(),
        feature_names=names,
        ml_model=ExtraTreesRegressor(n_estimators=5, random_state=0),
        random_state=0,
    ),
}


@pytest.fixture(scope="module")
def split(small_stencil_dataset):
    """Two disjoint training sets and a test set of the blocked-stencil data."""
    data = small_stencil_dataset
    perm = np.random.default_rng(3).permutation(data.n_samples)
    train, other, test = perm[:100], perm[100:200], perm[200:]
    return {
        "names": data.feature_names,
        "X": data.X[train], "y": data.y[train],
        "X_other": data.X[other], "y_other": data.y[other],
        "X_test": data.X[test],
    }


@pytest.fixture(params=sorted(MAKERS))
def make(request, split):
    """A factory of one unfitted, seeded regressor."""
    return lambda: MAKERS[request.param](split["names"])


def _fitted(make, split):
    return make().fit(split["X"], split["y"])


def test_fit_returns_self(make, split):
    model = make()
    assert model.fit(split["X"], split["y"]) is model


def test_predictions_are_one_finite_float_per_row(make, split):
    preds = _fitted(make, split).predict(split["X_test"])
    assert preds.dtype == np.float64
    assert preds.shape == (split["X_test"].shape[0],)
    assert np.all(np.isfinite(preds))


def test_set_params_with_get_params_is_a_no_op(make, split):
    model = make()
    before = repr(model)
    model.set_params(**model.get_params(deep=False))
    assert repr(model) == before


def test_fitting_a_clone_leaves_the_original_untouched(make, split):
    model = _fitted(make, split)
    before = model.predict(split["X_test"])
    clone(model).fit(split["X_other"], split["y_other"])
    np.testing.assert_array_equal(model.predict(split["X_test"]), before)


def test_refit_forgets_the_previous_training_set(make, split):
    model = make().fit(split["X_other"], split["y_other"])
    model.fit(split["X"], split["y"])
    np.testing.assert_array_equal(model.predict(split["X_test"]),
                                  _fitted(make, split).predict(split["X_test"]))


def test_read_only_inputs_are_accepted_and_left_unchanged(make, split):
    X, y, X_test = (split[k].copy() for k in ("X", "y", "X_test"))
    for arr in (X, y, X_test):
        arr.setflags(write=False)
    preds = make().fit(X, y).predict(X_test)
    np.testing.assert_array_equal(X, split["X"])
    np.testing.assert_array_equal(y, split["y"])
    np.testing.assert_array_equal(X_test, split["X_test"])
    np.testing.assert_array_equal(preds, _fitted(make, split).predict(split["X_test"]))


def test_a_rows_prediction_does_not_depend_on_its_batch(make, split):
    model = _fitted(make, split)
    X_test = split["X_test"]
    whole = model.predict(X_test)
    halves = np.concatenate([model.predict(X_test[:37]), model.predict(X_test[37:])])
    np.testing.assert_array_equal(halves, whole)
    np.testing.assert_array_equal(model.predict(X_test[::-1]), whole[::-1])
    np.testing.assert_array_equal(model.predict(X_test[5:6]), whole[5:6])


def test_nested_lists_predict_like_arrays(make, split):
    model = make().fit(split["X"].tolist(), split["y"].tolist())
    np.testing.assert_array_equal(model.predict(split["X_test"].tolist()),
                                  _fitted(make, split).predict(split["X_test"]))


def test_a_column_vector_target_fits_like_a_flat_one(make, split):
    model = make().fit(split["X"], split["y"][:, None])
    np.testing.assert_array_equal(model.predict(split["X_test"]),
                                  _fitted(make, split).predict(split["X_test"]))


def test_non_finite_features_are_rejected_at_fit_and_at_predict(make, split):
    X = split["X"].copy()
    X[4, 1] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        make().fit(X, split["y"])
    X_test = split["X_test"].copy()
    X_test[2, 0] = np.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        _fitted(make, split).predict(X_test)
