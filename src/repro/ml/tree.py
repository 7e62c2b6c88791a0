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

Trees are grown by one level-synchronous builder,
:func:`repro.ml._batched.build_forest_batched`, which scores every
distinct threshold with cumulative sums over presorted targets.  A
single tree is grown as a one-tree forest by the builder the forest
estimators use, and predicts as a one-tree forest too: through the one
descent of :mod:`repro.ml._packed`, all query rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin
from repro.utils.validation import check_array, check_is_fitted, check_X_y

__all__ = ["DecisionTreeRegressor", "Tree"]

_NO_CHILD = -1


@dataclass
class Tree:
    """Flat array representation of a fitted regression tree.

    Node 0 is the root and every child follows its parent.
    :meth:`apply` and :meth:`predict` descend as a one-tree
    :class:`~repro.ml._packed.PackedForest`, the descent every forest
    uses, whose node ids are this tree's.

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
        # _packed imports Tree from this module, hence the local import.
        from repro.ml._packed import PackedForest

        return PackedForest([self])._leaves(X)


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
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.splitter = splitter
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state
        self.tree_: Tree | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X, y) -> DecisionTreeRegressor:
        """Grow the tree on the training data."""
        # _batched imports Tree from this module, hence the local import;
        # the builder is read off the module at call time, so a patched
        # builder (the engine benchmark's frozen reference) takes effect.
        from repro.ml import _batched

        X, y = check_X_y(X, y)
        self._validate_hyperparameters()
        self.n_features_in_ = X.shape[1]
        self.tree_ = _batched.build_forest_batched(
            X, y,
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

    def _check_X(self, X) -> np.ndarray:
        """*X* as a validated array of the width the tree was fitted on."""
        check_is_fitted(self, "tree_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the tree was fitted with "
                f"{self.n_features_in_}"
            )
        return X

    def predict(self, X) -> np.ndarray:
        """Predict the target for every row of *X*."""
        X = self._check_X(X)
        return self.tree_.predict(X)

    def apply(self, X) -> np.ndarray:
        """Return the leaf index each row of *X* lands in."""
        X = self._check_X(X)
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
