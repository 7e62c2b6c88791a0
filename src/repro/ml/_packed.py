"""Contiguous flat-array packing of a fitted tree ensemble.

A fitted forest holds ``n_estimators`` independent :class:`Tree` objects;
predicting with a Python loop over them costs one full vectorized descent
per tree.  :class:`PackedForest` concatenates all node arrays into one
arena (child indices shifted by per-tree offsets) and descends **all
trees for all query rows simultaneously**: the work array holds one
current-node entry per (row, tree) pair, and each iteration of the
traversal loop advances every pair that has not yet reached a leaf.  The
interpreter cost is ``O(max_tree_depth)`` NumPy calls for the whole
ensemble instead of ``O(n_estimators * max_depth)``.

The arenas double as the fitted-model *persistence* format of the
serving tier (:mod:`repro.serving`): :meth:`PackedForest.state` exposes
them as a flat ``name -> ndarray`` mapping and :meth:`PackedForest.from_state`
rebuilds an identical instance from it, so a forest round-trips through
``.npz`` bytes without pickle and predicts bit-identically on the other
side (prediction only ever reads these six arrays).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _NO_CHILD, Tree

__all__ = ["PackedForest"]

#: Arena arrays that fully determine a packed forest's predictions, in
#: the order :meth:`PackedForest.state` emits them.
_STATE_FIELDS = ("roots", "feature", "threshold", "value", "left", "right")


class PackedForest:
    """Flat single-arena view of a list of fitted :class:`Tree` objects."""

    def __init__(self, trees: list[Tree]) -> None:
        if not trees:
            raise ValueError("PackedForest needs at least one tree")
        counts = np.array([t.node_count for t in trees], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
        self.n_trees = len(trees)
        self.roots = offsets
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.value = np.concatenate([t.value for t in trees])
        self.left = np.concatenate([
            np.where(t.left != _NO_CHILD, t.left + off, _NO_CHILD)
            for t, off in zip(trees, offsets, strict=True)
        ])
        self.right = np.concatenate([
            np.where(t.right != _NO_CHILD, t.right + off, _NO_CHILD)
            for t, off in zip(trees, offsets, strict=True)
        ])

    # ------------------------------------------------------------------ #
    # Arena (de)serialization — the serving tier's model format
    # ------------------------------------------------------------------ #
    def state(self) -> dict[str, np.ndarray]:
        """The six arena arrays as a ``name -> ndarray`` mapping.

        The mapping is the forest's complete prediction state: feed it
        to :meth:`from_state` (possibly after a round trip through
        ``np.savez``/``np.load``) to rebuild an instance whose
        :meth:`predict` / :meth:`predict_all` / :meth:`predict_std`
        outputs are bit-identical to this one's.
        """
        return {name: getattr(self, name) for name in _STATE_FIELDS}

    @classmethod
    def from_state(cls, state) -> PackedForest:
        """Rebuild a forest from the arenas :meth:`state` produced.

        *state* is any mapping holding the six arrays (an ``np.load``
        result works directly).  The arrays must describe trees, so a
        truncated, mismatched or hostile blob fails loudly here rather
        than predicting garbage or descending forever:

        * ``roots`` start at 0 and strictly increase inside the arena;
        * a leaf (``feature == -1``) has both children equal to -1;
        * an internal node's children follow it inside its own tree, so
          every descent ends at a leaf within the tree's node count;
        * an internal node's feature index is not negative.
        """
        packed = cls.__new__(cls)
        try:
            arrays = {name: np.asarray(state[name]) for name in _STATE_FIELDS}
        except KeyError as exc:
            raise ValueError(f"packed-forest state is missing array {exc}") from None
        roots = arrays["roots"].astype(np.int64, copy=False)
        n_nodes = arrays["feature"].size
        if roots.ndim != 1 or roots.size < 1:
            raise ValueError("packed-forest state has no trees")
        for name in ("feature", "threshold", "value", "left", "right"):
            if arrays[name].shape != (n_nodes,):
                raise ValueError(
                    f"packed-forest arena {name!r} has shape "
                    f"{arrays[name].shape}, expected ({n_nodes},)")
        feature = arrays["feature"].astype(np.int64, copy=False)
        left = arrays["left"].astype(np.int64, copy=False)
        right = arrays["right"].astype(np.int64, copy=False)
        if roots[0] != 0 or roots[-1] >= n_nodes or np.any(roots[1:] <= roots[:-1]):
            raise ValueError("packed-forest roots must start at 0 and strictly "
                             "increase inside the arena")
        leaf = feature == _NO_CHILD
        if np.any(left[leaf] != _NO_CHILD) or np.any(right[leaf] != _NO_CHILD):
            raise ValueError("packed-forest state has a leaf with children")
        internal = np.nonzero(~leaf)[0]
        tree_end = np.append(roots[1:], n_nodes)[
            np.searchsorted(roots, internal, side="right") - 1]
        for child in (left[internal], right[internal]):
            if np.any((child <= internal) | (child >= tree_end)):
                raise ValueError(
                    "packed-forest state has out-of-range node indices: an "
                    "internal node's children must follow it inside its tree")
        if np.any(feature[internal] < 0):
            raise ValueError("packed-forest state splits on a negative feature index")
        packed.n_trees = int(roots.size)
        packed.roots = roots
        packed.feature = feature
        packed.threshold = arrays["threshold"].astype(np.float64, copy=False)
        packed.value = arrays["value"].astype(np.float64, copy=False)
        packed.left = left
        packed.right = right
        return packed

    @property
    def node_count(self) -> int:
        """Total number of nodes across all packed trees."""
        return len(self.feature)

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values: ``(n_samples, n_trees)``, one descent for all."""
        n = X.shape[0]
        T = self.n_trees
        nodes = np.tile(self.roots, n)  # flat (n*T,), row-major (row, tree)
        active = self.feature[nodes] != _NO_CHILD
        while True:
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            cur = nodes[idx]
            rows = idx // T
            go_left = X[rows, self.feature[cur]] <= self.threshold[cur]
            nxt = np.where(go_left, self.left[cur], self.right[cur])
            nodes[idx] = nxt
            active[idx] = self.feature[nxt] != _NO_CHILD
        return self.value[nodes].reshape(n, T)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Ensemble mean prediction."""
        return self.predict_all(X).mean(axis=1)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Per-sample standard deviation across trees."""
        return self.predict_all(X).std(axis=1)
