"""Property tests for the packed descent, the one tree descent of :mod:`repro.ml`.

:meth:`PackedForest.predict_all` walks every (tree, row) pair through one
flat interleaved child array with self-looping leaves.  These tests hold
it to an independent scalar descent written here (one row, one tree and
one node at a time over the ``left``/``right`` arrays of
:meth:`PackedForest.state`) on fitted forests and trees and on arenas
built through :meth:`PackedForest.from_state`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor, ExtraTreesRegressor, RandomForestRegressor
from repro.ml._packed import PackedForest

#: Thresholds of generated arenas, and the values their query rows draw
#: from, so rows land exactly on thresholds (they go left) and on ±inf.
_VALUES = (-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf)


def _scalar_leaves(state, X: np.ndarray) -> np.ndarray:
    """Leaf of every (row, tree) pair, one node at a time: ``(n_samples, n_trees)``."""
    feature, threshold = state["feature"], state["threshold"]
    left, right = state["left"], state["right"]
    leaves = np.empty((X.shape[0], state["roots"].size), dtype=np.int64)
    for i, row in enumerate(X):
        for t, node in enumerate(state["roots"]):
            while feature[node] != -1:
                # A NaN fails the comparison and goes right.
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            leaves[i, t] = node
    return leaves


def _assert_descends_like_scalar(forest: PackedForest, X: np.ndarray) -> None:
    state = forest.state()
    expected = _scalar_leaves(state, X)
    values = forest.predict_all(X)
    assert values.shape == (X.shape[0], forest.n_trees)
    assert values.flags.c_contiguous
    np.testing.assert_array_equal(values, state["value"][expected])
    n = X.shape[0]
    np.testing.assert_array_equal(
        forest._leaves(X).reshape(forest.n_trees, n).T, expected)
    if n:
        np.testing.assert_array_equal(forest.predict(X), values.mean(axis=1))
        np.testing.assert_array_equal(forest.predict_std(X), values.std(axis=1))


@pytest.fixture(scope="module")
def fitted_trees():
    """Deep fitted trees plus root-only ones from a constant target."""
    rng = np.random.default_rng(0)
    X = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=(120, 4))
    y = X[:, 0] * 3.0 - X[:, 2] + rng.normal(scale=0.1, size=120)
    trees = [est.tree_ for est in ExtraTreesRegressor(
        n_estimators=4, random_state=0).fit(X, y).estimators_]
    trees += [est.tree_ for est in RandomForestRegressor(
        n_estimators=3, random_state=1).fit(X, y).estimators_]
    trees.append(DecisionTreeRegressor(random_state=2).fit(X, y).tree_)
    constant = DecisionTreeRegressor().fit(X, np.full(120, 2.5)).tree_
    assert constant.node_count == 1
    return trees, constant


@st.composite
def _arena(draw):
    """``(state, n_features)`` of a valid arena: preorder trees, -1 leaves.

    Leaves get finite thresholds (the descent never compares them);
    internal nodes split on a drawn feature at a threshold of
    :data:`_VALUES`, ±inf included.
    """
    n_features = draw(st.integers(1, 4))
    feature, threshold, left, right = [], [], [], []

    def build(depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        left.append(-1)
        right.append(-1)
        if depth == 0 or not draw(st.booleans()):
            threshold.append(draw(st.floats(-10, 10)))
            return node
        feature[node] = draw(st.integers(0, n_features - 1))
        threshold.append(draw(st.sampled_from(_VALUES)))
        left[node] = build(depth - 1)
        right[node] = build(depth - 1)
        return node

    roots = [build(draw(st.integers(0, 5))) for _ in range(draw(st.integers(1, 5)))]
    state = {"roots": np.array(roots), "feature": np.array(feature),
             "threshold": np.array(threshold),
             "value": np.arange(len(feature), dtype=np.float64),
             "left": np.array(left), "right": np.array(right)}
    return state, n_features


def _rows(draw, n_columns: int, values) -> np.ndarray:
    n = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]), label="rows")
    cells = draw(st.lists(st.sampled_from(values), min_size=n * n_columns,
                          max_size=n * n_columns), label="cells")
    return np.array(cells, dtype=np.float64).reshape(n, n_columns)


class TestDescentMatchesScalarReference:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fitted_trees(self, fitted_trees, data):
        """Mixed root-only and deep fitted trees, rows on their thresholds."""
        trees, constant = fitted_trees
        chosen = data.draw(st.lists(st.sampled_from(trees + [constant]),
                                    min_size=1, max_size=6), label="trees")
        forest = PackedForest(chosen)
        splits = forest.threshold[forest.feature != -1]
        values = sorted(set(splits.tolist()) | {-1.0, 0.0, 3.0})
        extra = data.draw(st.integers(0, 2), label="extra columns")
        _assert_descends_like_scalar(forest, _rows(data.draw, 4 + extra, values))

    @settings(max_examples=150, deadline=None)
    @given(arena=_arena(), data=st.data())
    def test_arenas_from_state(self, arena, data):
        """Valid arenas, NaN and ±inf rows, a query wider than needed."""
        state, n_features = arena
        forest = PackedForest.from_state(state)
        extra = data.draw(st.integers(0, 2), label="extra columns")
        X = _rows(data.draw, n_features + extra, _VALUES + (np.nan, 0.25))
        _assert_descends_like_scalar(forest, X)

    def test_pairs_finishing_level_by_level(self):
        """Chains of every depth up to 30 (node ``k`` sends ``x <= k`` to a
        leaf): a few pairs finish at every level, so the descent drops
        finished pairs from its work arrays again and again."""
        feature, threshold, left, right, roots = [], [], [], [], []
        for depth in range(1, 31):
            start = len(feature)
            roots.append(start)
            for k in range(depth):
                node = start + 2 * k
                feature += [0, -1]
                threshold += [float(k), 0.0]
                left += [node + 1, -1]
                right += [node + 2, -1]
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
        state = {"roots": np.array(roots), "feature": np.array(feature),
                 "threshold": np.array(threshold),
                 "value": np.arange(len(feature), dtype=np.float64),
                 "left": np.array(left), "right": np.array(right)}
        X = np.arange(-1.0, 32.0, 0.5).reshape(-1, 1)
        _assert_descends_like_scalar(PackedForest.from_state(state), X)

    def test_nan_goes_right_and_threshold_goes_left(self):
        state = {"roots": np.array([0]), "feature": np.array([0, -1, -1]),
                 "threshold": np.array([1.0, 0.0, 0.0]),
                 "value": np.array([0.0, 10.0, 20.0]),
                 "left": np.array([1, -1, -1]), "right": np.array([2, -1, -1])}
        forest = PackedForest.from_state(state)
        X = np.array([[1.0], [np.nan], [np.inf], [-np.inf], [1.5]])
        np.testing.assert_array_equal(forest.predict_all(X)[:, 0],
                                      [10.0, 20.0, 20.0, 10.0, 20.0])

    def test_root_only_forest_needs_no_columns(self, fitted_trees):
        _, constant = fitted_trees
        forest = PackedForest([constant, constant])
        np.testing.assert_array_equal(forest.predict_all(np.empty((3, 0))),
                                      np.full((3, 2), 2.5))


class TestDescentContract:
    def test_narrower_X_raises_value_error(self, fitted_trees):
        trees, _ = fitted_trees
        forest = PackedForest(trees)
        width = int(forest.feature.max()) + 1
        X = np.zeros((5, width))
        forest.predict_all(X)
        with pytest.raises(ValueError, match="features"):
            forest.predict_all(X[:, :-1])
        with pytest.raises(ValueError, match="features"):
            trees[0].apply(X[:, :-1])

    def test_tree_apply_gives_the_trees_own_node_ids(self, fitted_trees):
        trees, constant = fitted_trees
        X = np.random.default_rng(1).choice([0.0, 0.25, 0.5, 1.0, 2.0], size=(60, 4))
        for tree in trees + [constant]:
            state = {"roots": np.array([0]), "feature": tree.feature,
                     "threshold": tree.threshold, "left": tree.left, "right": tree.right}
            expected = _scalar_leaves(state, X)[:, 0]
            np.testing.assert_array_equal(tree.apply(X), expected)
            np.testing.assert_array_equal(tree.predict(X), tree.value[expected])

    def test_state_restores_minus_one_children(self, fitted_trees):
        trees, _ = fitted_trees
        state = PackedForest(trees).state()
        leaf = state["feature"] == -1
        assert np.all(state["left"][leaf] == -1) and np.all(state["right"][leaf] == -1)
        offsets = np.concatenate(([0], np.cumsum([t.node_count for t in trees])))[:-1]
        np.testing.assert_array_equal(state["roots"], offsets)
        np.testing.assert_array_equal(
            state["left"], np.concatenate([np.where(t.left != -1, t.left + off, -1)
                                           for t, off in zip(trees, offsets, strict=True)]))
        rebuilt = PackedForest.from_state(state).state()
        for name, array in state.items():
            assert array.dtype == rebuilt[name].dtype
            np.testing.assert_array_equal(array, rebuilt[name])
