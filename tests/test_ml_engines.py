"""Tests for the tree builder and the packed predictor.

Every tree estimator grows its trees on one level-synchronous builder,
exact split search (:mod:`repro.ml._batched`).  The ``"best"`` splitter
must pick a CART-optimal split at every node (checked against brute
force on random tied data) and cut at the midpoint of the node's values
on either side; the builder must be deterministic, honour its
constraints and learn the registry datasets; fitted models must survive
a pickle; and :class:`~repro.ml._packed.PackedForest` must reproduce the
per-tree Python prediction loop.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml._packed import PackedForest
from repro.ml.bagging import BaggingRegressor
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import ExtraTreesRegressor, RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.model_selection import train_test_split
from repro.ml.tree import DecisionTreeRegressor


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 10.0, size=(400, 5))
    # Duplicate feature values so ties exercise the stable-sort paths.
    X[:, 3] = np.round(X[:, 3])
    y = np.where(X[:, 0] > 5, 10.0, 1.0) + 0.4 * X[:, 1] ** 2 + 0.1 * rng.normal(size=400)
    return X, y


def assert_trees_identical(a, b):
    np.testing.assert_array_equal(a.feature, b.feature)
    np.testing.assert_array_equal(a.left, b.left)
    np.testing.assert_array_equal(a.right, b.right)
    np.testing.assert_array_equal(a.n_samples, b.n_samples)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    np.testing.assert_array_equal(a.value, b.value)
    np.testing.assert_array_equal(a.impurity, b.impurity)


@st.composite
def tied_regression_data(draw):
    """Small datasets with many tied feature values, plus a leaf size."""
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    X = draw(hnp.arrays(np.float64, (n, d),
                        elements=st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0])))
    # Integer targets keep every split SSE exact up to one rounding.
    y = draw(hnp.arrays(np.float64, n, elements=st.integers(-20, 20).map(float)))
    return X, y, draw(st.integers(min_value=1, max_value=4))


def _sse(values):
    return float(((values - values.mean()) ** 2).sum()) if values.size else 0.0


def _brute_force_min_sse(X, y, min_samples_leaf):
    """Least split SSE over every (feature, midpoint) candidate of a node."""
    best = np.inf
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for lo, hi in zip(values[:-1], values[1:], strict=True):
            left = X[:, f] <= 0.5 * (lo + hi)
            n_left = int(left.sum())
            if min(n_left, len(y) - n_left) >= min_samples_leaf:
                best = min(best, _sse(y[left]) + _sse(y[~left]))
    return best


def assert_cart_optimal(tree, X, y, min_samples_leaf):
    """Every internal node holds a least-SSE split of its own samples."""
    samples = {0: np.arange(len(y))}
    for node in range(tree.node_count):
        idx = samples[node]
        assert tree.n_samples[node] == idx.size
        assert node == 0 or idx.size >= min_samples_leaf
        f = tree.feature[node]
        if f == -1:
            continue
        thr = tree.threshold[node]
        go_left = X[idx, f] <= thr
        assert go_left.any() and not go_left.all()
        assert X[idx[go_left], f].max() <= thr < X[idx[~go_left], f].min()
        left, right = tree.left[node], tree.right[node]
        assert left > node and right > node
        samples[left], samples[right] = idx[go_left], idx[~go_left]
        chosen = _sse(y[idx[go_left]]) + _sse(y[idx[~go_left]])
        best = _brute_force_min_sse(X[idx], y[idx], min_samples_leaf)
        assert np.isclose(chosen, best, rtol=1e-9, atol=1e-12), (node, chosen, best)


class TestCartOptimality:
    """The ``"best"`` splitter over all features picks least-SSE splits."""

    @settings(max_examples=20, deadline=None)
    @given(data=tied_regression_data())
    def test_best_split_tree_is_cart_optimal(self, data):
        X, y, min_samples_leaf = data
        model = DecisionTreeRegressor(min_samples_leaf=min_samples_leaf,
                                      random_state=0).fit(X, y)
        assert_cart_optimal(model.tree_, X, y, min_samples_leaf)


class TestBatchedEngine:
    @pytest.mark.parametrize("splitter", ["best", "random"])
    def test_deterministic_given_seed(self, data, splitter):
        X, y = data
        t1 = DecisionTreeRegressor(splitter=splitter, random_state=5).fit(X, y)
        t2 = DecisionTreeRegressor(splitter=splitter, random_state=5).fit(X, y)
        assert_trees_identical(t1.tree_, t2.tree_)

    def test_constraints_respected(self, data):
        X, y = data
        model = DecisionTreeRegressor(splitter="random", max_depth=4,
                                      min_samples_leaf=9, random_state=0).fit(X, y)
        assert model.get_depth() <= 4
        _, counts = np.unique(model.apply(X), return_counts=True)
        assert counts.min() >= 9

    def test_min_impurity_decrease_prunes(self, data):
        X, y = data
        loose = DecisionTreeRegressor(random_state=0).fit(X, y)
        strict = DecisionTreeRegressor(min_impurity_decrease=1.0, random_state=0).fit(X, y)
        assert strict.get_n_leaves() < loose.get_n_leaves()

    @pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
    def test_forest_quality_on_held_out_rows(self, data, cls):
        X, y = data
        Xtr, ytr, Xte, yte = X[:300], y[:300], X[300:], y[300:]
        forest = cls(n_estimators=20, random_state=0).fit(Xtr, ytr)
        assert r2_score(yte, forest.predict(Xte)) > 0.9

    def test_tree_independent_of_forest_size(self, data):
        """A tree's RNG stream depends only on its own frontier, so the
        first trees of differently-sized forests are identical."""
        X, y = data
        small = ExtraTreesRegressor(n_estimators=2, random_state=0).fit(X, y)
        large = ExtraTreesRegressor(n_estimators=6, random_state=0).fit(X, y)
        for a, b in zip(small.estimators_, large.estimators_[:2], strict=True):
            assert_trees_identical(a.tree_, b.tree_)

    def test_extra_trees_members_match_trees_grown_alone(self, data):
        """Random-splitter node sums are per-segment reduceat sums, so a
        member grown with 7 others equals the same tree grown alone.  (The
        "best" splitter does not promise this: its left sums are prefix
        sums over the whole level.)"""
        X, y = data
        forest = ExtraTreesRegressor(n_estimators=8, random_state=3).fit(X, y)
        for member in forest.estimators_:
            alone = DecisionTreeRegressor(splitter="random", max_features=1.0,
                                          random_state=member.random_state).fit(X, y)
            assert_trees_identical(member.tree_, alone.tree_)

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(1).random((30, 3))
        model = DecisionTreeRegressor().fit(X, np.full(30, 2.5))
        assert model.get_n_leaves() == 1
        np.testing.assert_allclose(model.predict(X), 2.5)

    @pytest.mark.parametrize("splitter", ["best", "random"])
    def test_constant_features_yield_single_leaf(self, splitter):
        """No feature varies, so no split exists whatever the targets."""
        X = np.ones((40, 3))
        y = np.random.default_rng(0).normal(size=40)
        model = DecisionTreeRegressor(splitter=splitter, random_state=0).fit(X, y)
        assert model.get_n_leaves() == 1
        np.testing.assert_allclose(model.predict(X), y.mean(), rtol=1e-12)

    def test_bootstrap_oob_supported(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=25, oob_score=True,
                                      random_state=0).fit(X, y)
        assert model.oob_score_ is not None and model.oob_score_ > 0.5


def _node_samples(tree, X):
    """Training-row indices of every node of *tree*, fitted on all of *X*."""
    samples = {0: np.arange(X.shape[0])}
    for node in range(tree.node_count):
        f = tree.feature[node]
        if f != -1:
            idx = samples[node]
            go_left = X[idx, f] <= tree.threshold[node]
            samples[tree.left[node]] = idx[go_left]
            samples[tree.right[node]] = idx[~go_left]
    return samples


class TestThresholds:
    """Where the builder puts a threshold inside a node's value gap."""

    def test_best_thresholds_are_node_local_midpoints(self, data):
        """A ``"best"`` threshold is the midpoint of the node's values on
        either side of the cut, not a global bin edge."""
        X, y = data
        tree = DecisionTreeRegressor(min_samples_leaf=3, random_state=0).fit(X, y).tree_
        samples = _node_samples(tree, X)
        internal = np.nonzero(tree.feature != -1)[0]
        assert internal.size > 10
        for node in internal:
            values = X[samples[node], tree.feature[node]]
            lo = values[values <= tree.threshold[node]].max()
            hi = values[values > tree.threshold[node]].min()
            assert tree.threshold[node] == 0.5 * (lo + hi)

    def test_midpoint_that_rounds_up_falls_back_to_the_left_value(self):
        """Between adjacent floats the midpoint rounds onto the right
        value, which would send it left; the builder cuts at the left
        value instead."""
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b  # the sum's tie rounds to even, upwards
        model = DecisionTreeRegressor().fit(np.array([[a], [b]]), np.array([0.0, 1.0]))
        assert model.tree_.threshold[0] == a
        np.testing.assert_array_equal(model.predict(np.array([[a], [b]])), [0.0, 1.0])

    def test_random_thresholds_lie_in_the_node_range(self, data):
        """A ``"random"`` threshold is drawn in ``[min, max)`` of the
        node's values, so both children are non-empty."""
        X, y = data
        tree = DecisionTreeRegressor(splitter="random", random_state=4).fit(X, y).tree_
        samples = _node_samples(tree, X)
        internal = np.nonzero(tree.feature != -1)[0]
        assert internal.size > 10
        for node in internal:
            values = X[samples[node], tree.feature[node]]
            assert values.min() <= tree.threshold[node] < values.max()


class TestRegistryDatasets:
    """The one builder learns the paper's datasets from held-out rows."""

    @pytest.mark.parametrize("cls", [ExtraTreesRegressor, RandomForestRegressor])
    def test_stencil_dataset_r2(self, small_stencil_dataset, cls):
        ds = small_stencil_dataset
        Xtr, Xte, ytr, yte = train_test_split(ds.X, ds.y, test_size=0.3, random_state=1)
        forest = cls(n_estimators=30, random_state=0).fit(Xtr, ytr)
        assert r2_score(yte, forest.predict(Xte)) > 0.5

    def test_fmm_dataset_r2(self, small_fmm_dataset):
        ds = small_fmm_dataset
        Xtr, Xte, ytr, yte = train_test_split(ds.X, ds.y, test_size=0.3, random_state=1)
        forest = ExtraTreesRegressor(n_estimators=30, random_state=0).fit(Xtr, ytr)
        assert r2_score(yte, forest.predict(Xte)) > 0.5


class TestFittedModelsPickle:
    """A fitted tree model, packed arena included, survives a pickle."""

    @pytest.mark.parametrize("make", [
        lambda: DecisionTreeRegressor(random_state=0),
        lambda: RandomForestRegressor(n_estimators=5, random_state=0),
        lambda: ExtraTreesRegressor(n_estimators=5, random_state=0),
        lambda: GradientBoostingRegressor(n_estimators=10, random_state=0),
        lambda: BaggingRegressor(n_estimators=5, random_state=0),
    ], ids=["decision_tree", "random_forest", "extra_trees", "boosting", "bagging"])
    def test_round_trip_predicts_identically(self, data, make):
        X, y = data
        model = make().fit(X, y)
        loaded = pickle.loads(pickle.dumps(model))
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))
        if hasattr(model, "predict_std"):
            np.testing.assert_array_equal(loaded.predict_std(X), model.predict_std(X))


class TestPackedForest:
    @pytest.mark.parametrize("cls", [RandomForestRegressor, ExtraTreesRegressor])
    def test_predict_matches_per_tree_loop(self, data, cls):
        X, y = data
        forest = cls(n_estimators=12, random_state=0).fit(X, y)
        loop = np.zeros(X.shape[0])
        for tree in forest.estimators_:
            loop += tree.tree_.predict(X)
        loop /= len(forest.estimators_)
        np.testing.assert_allclose(forest.predict(X), loop, rtol=1e-12)

    def test_predict_all_shape_and_values(self, data):
        X, y = data
        forest = ExtraTreesRegressor(n_estimators=5, random_state=0).fit(X, y)
        all_preds = forest.packed_.predict_all(X[:50])
        assert all_preds.shape == (50, 5)
        for i, tree in enumerate(forest.estimators_):
            np.testing.assert_array_equal(all_preds[:, i], tree.tree_.predict(X[:50]))

    def test_predict_std_matches_stack(self, data):
        X, y = data
        forest = ExtraTreesRegressor(n_estimators=8, random_state=0).fit(X, y)
        stacked = np.stack([t.tree_.predict(X) for t in forest.estimators_])
        np.testing.assert_allclose(forest.predict_std(X), stacked.std(axis=0),
                                   rtol=1e-9, atol=1e-12)

    def test_single_node_trees(self):
        X = np.ones((10, 2))
        y = np.full(10, 3.0)
        forest = ExtraTreesRegressor(n_estimators=3, random_state=0).fit(X, y)
        np.testing.assert_allclose(forest.predict(X), 3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PackedForest([])


class TestVectorizedMaxDepth:
    def test_matches_per_node_reference(self, data):
        X, y = data
        tree = DecisionTreeRegressor(random_state=0).fit(X, y).tree_
        depth = np.zeros(tree.node_count, dtype=np.int64)
        for node in range(tree.node_count):
            for child in (tree.left[node], tree.right[node]):
                if child != -1:
                    depth[child] = depth[node] + 1
        assert tree.max_depth == int(depth.max())
