"""CART regression trees.

:class:`DecisionTreeRegressor` implements the classic CART algorithm with
variance (MSE) reduction as the split criterion.  Two splitters are
provided:

* ``"best"`` — exhaustive search over all candidate thresholds of each
  considered feature (scikit-learn's default decision tree / random forest
  behaviour);
* ``"random"`` — one uniformly random threshold per considered feature
  (the *extremely randomized trees* splitter of Geurts et al., used by
  :class:`repro.ml.forest.ExtraTreesRegressor`, the best performing model
  in the paper's Figure 3).

Trees are grown by one of two level-synchronous builders, chosen by
``tree_method``: the exact builder (:mod:`repro.ml._batched`, the
default), which scores every distinct threshold with cumulative sums over
presorted targets, and its histogram-binned sibling
(:mod:`repro.ml._hist`, ``tree_method="hist"``).  A single tree is grown
as a one-tree forest by the same builders the forest estimators use (see
:func:`_grow_trees`), and prediction descends all query rows through the
flat node arrays simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin
from repro.utils.validation import check_array, check_is_fitted, check_X_y

__all__ = ["DecisionTreeRegressor", "Tree"]

_NO_CHILD = -1

#: Valid values of the estimators' ``tree_method`` parameter (``None``
#: means exact).
_TREE_METHODS = (None, "exact", "hist")


@dataclass
class Tree:
    """Flat array representation of a fitted regression tree.

    Attributes
    ----------
    feature:
        Split feature index per node (-1 for leaves).
    threshold:
        Split threshold per node (NaN for leaves).
    left, right:
        Child node indices (-1 for leaves).
    value:
        Mean training target of the samples reaching the node.
    n_samples:
        Number of training samples reaching the node.
    impurity:
        Variance of the training targets at the node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity: np.ndarray

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.sum(self.feature == _NO_CHILD))

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0).

        Computed by a vectorized breadth-first frontier walk: one NumPy
        step per tree level instead of a Python loop over every node.
        """
        if not self.node_count:
            return 0
        depth = 0
        frontier = np.array([0], dtype=np.int64)
        while True:
            children = np.concatenate((self.left[frontier], self.right[frontier]))
            children = children[children != _NO_CHILD]
            if children.size == 0:
                return depth
            depth += 1
            frontier = children

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf value for every row of *X*."""
        return self.value[self.apply(X)]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Return the index of the leaf each row of *X* falls into."""
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.int64)
        active = self.feature[nodes] != _NO_CHILD
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            feat = self.feature[cur]
            thr = self.threshold[cur]
            go_left = X[idx, feat] <= thr
            nodes[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[nodes[idx]] != _NO_CHILD
        return nodes

    def decision_path_lengths(self, X: np.ndarray) -> np.ndarray:
        """Return the depth of the leaf reached by every row of *X*."""
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.int64)
        depths = np.zeros(n, dtype=np.int64)
        active = self.feature[nodes] != _NO_CHILD
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            feat = self.feature[cur]
            thr = self.threshold[cur]
            go_left = X[idx, feat] <= thr
            nodes[idx] = np.where(go_left, self.left[cur], self.right[cur])
            depths[idx] += 1
            active[idx] = self.feature[nodes[idx]] != _NO_CHILD
        return depths


def _grow_trees(X: np.ndarray, y: np.ndarray, *, tree_method: str | None,
                max_bins: int, prebinned=None, **params) -> list[Tree]:
    """Grow one :class:`Tree` per ``params["sample_sets"]`` entry.

    The single dispatch point of the tree, forest and boosting ``fit``
    paths: ``tree_method="hist"`` selects
    :func:`~repro.ml._hist.build_forest_hist` (with *max_bins* and the
    optional *prebinned* codes), ``None`` and ``"exact"`` select
    :func:`~repro.ml._batched.build_forest_batched`.  *params* are the
    builders' shared keyword arguments.  The builders import
    :class:`Tree` from this module, hence the local imports.
    """
    if tree_method not in _TREE_METHODS:
        raise ValueError(f"tree_method must be one of {_TREE_METHODS}, got {tree_method!r}")
    if tree_method == "hist":
        from repro.ml._hist import build_forest_hist

        return build_forest_hist(X, y, max_bins=max_bins, prebinned=prebinned, **params)
    from repro.ml._batched import build_forest_batched

    return build_forest_batched(X, y, **params)


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until leaves are pure or smaller
        than ``min_samples_split``.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples in each leaf.
    max_features:
        Number of features examined per split: an int, a float fraction in
        (0, 1], ``"sqrt"``, ``"log2"``, or ``None`` (all features).
    splitter:
        ``"best"`` (exhaustive thresholds) or ``"random"`` (extra-trees).
    min_impurity_decrease:
        Minimum weighted variance reduction required to keep a split.
    random_state:
        Seed controlling feature subsets and random thresholds.
    tree_method:
        ``None`` or ``"exact"`` (exact threshold search) or ``"hist"``
        (histogram-binned split search, see :mod:`repro.ml._hist`).
    max_bins:
        Quantile bins per feature for the ``"hist"`` method (ignored by
        exact search).
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        splitter: str = "best",
        min_impurity_decrease: float = 0.0,
        random_state=None,
        tree_method: str | None = None,
        max_bins: int = 256,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.tree_: Tree | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X, y, _hist_prebinned=None) -> DecisionTreeRegressor:
        """Grow the tree on the training data.

        ``_hist_prebinned`` optionally carries ``(codes, edges_pad)``
        from :func:`repro.ml._hist.bin_dataset` for the rows of *X*, so
        callers fitting many hist trees on the same feature matrix
        (gradient boosting) quantize it once instead of per tree.
        """
        X, y = check_X_y(X, y)
        self._validate_hyperparameters()
        self.n_features_in_ = X.shape[1]
        self.tree_ = _grow_trees(
            X, y,
            tree_method=self.tree_method,
            max_bins=self.max_bins,
            prebinned=_hist_prebinned,
            sample_sets=[np.arange(X.shape[0])],
            seeds=[self.random_state],
            splitter=self.splitter,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(X.shape[1]),
            min_impurity_decrease=self.min_impurity_decrease,
        )[0]
        return self

    def predict(self, X) -> np.ndarray:
        """Predict the target for every row of *X*."""
        check_is_fitted(self, "tree_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the tree was fitted with "
                f"{self.n_features_in_}"
            )
        return self.tree_.predict(X)

    def apply(self, X) -> np.ndarray:
        """Return the leaf index each row of *X* lands in."""
        check_is_fitted(self, "tree_")
        X = check_array(X)
        return self.tree_.apply(X)

    def get_depth(self) -> int:
        """Depth of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.max_depth

    def get_n_leaves(self) -> int:
        """Number of leaves of the fitted tree."""
        check_is_fitted(self, "tree_")
        return self.tree_.n_leaves

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-based feature importances (sum to 1, or all zeros)."""
        check_is_fitted(self, "tree_")
        tree = self.tree_
        importances = np.zeros(self.n_features_in_, dtype=np.float64)
        for node in range(tree.node_count):
            feat = tree.feature[node]
            if feat == _NO_CHILD:
                continue
            left, right = tree.left[node], tree.right[node]
            n, n_l, n_r = tree.n_samples[node], tree.n_samples[left], tree.n_samples[right]
            decrease = (
                n * tree.impurity[node]
                - n_l * tree.impurity[left]
                - n_r * tree.impurity[right]
            )
            importances[feat] += max(0.0, decrease)
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances

    # ------------------------------------------------------------------ #
    def _validate_hyperparameters(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.splitter not in ("best", "random"):
            raise ValueError(f"splitter must be 'best' or 'random', got {self.splitter!r}")
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")
        if self.max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {self.max_bins}")

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            if mf == "log2":
                return max(1, int(np.log2(n_features)))
            raise ValueError(f"unknown max_features string {mf!r}")
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(f"float max_features must be in (0, 1], got {mf}")
            return max(1, int(round(mf * n_features)))
        mf = int(mf)
        if not 1 <= mf <= n_features:
            raise ValueError(
                f"max_features must be in [1, {n_features}], got {mf}"
            )
        return mf
