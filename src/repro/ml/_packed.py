"""Contiguous flat-array packing of a fitted tree ensemble.

A fitted forest holds ``n_estimators`` independent :class:`Tree` objects;
predicting with a Python loop over them costs one full vectorized descent
per tree.  :class:`PackedForest` concatenates all node arrays into one
arena (child indices shifted by per-tree offsets) and descends **all
trees for all query rows simultaneously**, so the interpreter cost is
``O(max_tree_depth)`` NumPy calls for the whole ensemble instead of
``O(n_estimators * max_depth)``.  It is the only descent in
:mod:`repro.ml`: a single :class:`Tree` predicts as a one-tree
:class:`PackedForest`, whose node ids are the tree's own.

The descent works on one flat array of (tree, row) pairs, each holding
the node it has reached, and every tree level costs a handful of whole-
array passes over those pairs:

* **Tree-major pairs.**  Pair ``t * n_samples + i`` starts at tree
  ``t``'s root and reads row ``i`` of the row-major query matrix through
  a precomputed offset ``i * n_features``, so reading a pair's feature
  value is one flat gather.
* **One interleaved child array.**  Node ``k``'s children sit at
  ``child[2k]`` (right) and ``child[2k + 1]`` (left), and a step is
  ``child[2 * node + (x <= threshold)]``; a NaN compares false, so it
  goes right, as a ``<=`` split sends it.
* **Self-looping leaves.**  A leaf's two slots both hold the leaf itself
  and its feature is -1, so its gather reads a valid element (the one
  before its row) and either comparison outcome keeps it in place.
  Finished pairs need no active mask and no scatter: they just stay put.
* **Compaction every 3 levels.**  Every third level the live pairs are
  counted; once fewer than half are live, the finished pairs' nodes are
  parked in the output and dropped from the work arrays, so a few deep
  trees do not drag every shallow pair through their extra levels.

:meth:`PackedForest.predict_all` returns its leaf values as a C-contiguous
``(n_samples, n_trees)`` array whatever order the pairs descend in: the
means, standard deviations, boosting sums and stacking's column slices
taken over it then reduce the same values in the same memory order, so
every prediction rounds bit for bit as before.

The arenas double as the fitted-model *persistence* format of the
serving tier (:mod:`repro.serving`): :meth:`PackedForest.state` exposes
them as a flat ``name -> ndarray`` mapping (with separate ``left`` and
``right`` child arrays, -1 for leaves) and :meth:`PackedForest.from_state`
rebuilds an identical instance from it, so a forest round-trips through
``.npz`` bytes without pickle and predicts bit-identically on the other
side.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _NO_CHILD, Tree

__all__ = ["PackedForest"]

#: Arena arrays that fully determine a packed forest's predictions, in
#: the order :meth:`PackedForest.state` emits them.
_STATE_FIELDS = ("roots", "feature", "threshold", "value", "left", "right")

#: Tree levels the descent takes between two counts of its live pairs.
_LEVELS_PER_CHECK = 3


def _interleave(feature: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The descent's child array: right at ``2k``, left at ``2k + 1``.

    A leaf (``feature == -1``) points to itself in both slots.
    """
    child = np.empty(2 * feature.size, dtype=np.int64)
    child[0::2] = right
    child[1::2] = left
    leaves = np.flatnonzero(feature == _NO_CHILD)
    child[2 * leaves] = leaves
    child[2 * leaves + 1] = leaves
    return child


class PackedForest:
    """Flat single-arena view of a list of fitted :class:`Tree` objects."""

    def __init__(self, trees: list[Tree]) -> None:
        if not trees:
            raise ValueError("PackedForest needs at least one tree")
        counts = np.array([t.node_count for t in trees], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
        shift = np.repeat(offsets, counts)
        feature = np.concatenate([t.feature for t in trees])
        self._set_arena(
            offsets, feature,
            np.concatenate([t.threshold for t in trees]),
            np.concatenate([t.value for t in trees]),
            _interleave(feature, np.concatenate([t.left for t in trees]) + shift,
                        np.concatenate([t.right for t in trees]) + shift))

    def _set_arena(self, roots, feature, threshold, value, child) -> None:
        self.n_trees = int(roots.size)
        self.roots = roots
        self.feature = feature
        self.threshold = threshold
        self.value = value
        self.child = child
        #: Columns a query matrix needs: the largest split feature + 1.
        self._n_columns = int(feature.max()) + 1

    # ------------------------------------------------------------------ #
    # Arena (de)serialization — the serving tier's model format
    # ------------------------------------------------------------------ #
    def state(self) -> dict[str, np.ndarray]:
        """The six arena arrays as a ``name -> ndarray`` mapping.

        The mapping is the forest's complete prediction state: feed it
        to :meth:`from_state` (possibly after a round trip through
        ``np.savez``/``np.load``) to rebuild an instance whose
        :meth:`predict` / :meth:`predict_all` / :meth:`predict_std`
        outputs are bit-identical to this one's.  ``left`` and ``right``
        give leaves -1 children, the model format's convention, rather
        than the descent's self-loops.
        """
        leaf = self.feature == _NO_CHILD
        return {"roots": self.roots, "feature": self.feature,
                "threshold": self.threshold, "value": self.value,
                "left": np.where(leaf, _NO_CHILD, self.child[1::2]),
                "right": np.where(leaf, _NO_CHILD, self.child[0::2])}

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
        packed._set_arena(roots, feature,
                          arrays["threshold"].astype(np.float64, copy=False),
                          arrays["value"].astype(np.float64, copy=False),
                          _interleave(feature, left, right))
        return packed

    @property
    def node_count(self) -> int:
        """Total number of nodes across all packed trees."""
        return len(self.feature)

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf reached by every (tree, row) pair, tree-major: ``(n_trees * n_samples,)``.

        Raises :class:`ValueError` when *X* has no column for the
        arena's largest split feature: the flat gather would otherwise
        read the next row's values.
        """
        n, d = X.shape
        if d < self._n_columns:
            raise ValueError(f"X has {d} features, but the forest splits on "
                             f"feature {self._n_columns - 1}")
        nodes = np.repeat(self.roots, n)
        if not self._n_columns or not n:  # only root leaves, or no rows
            return nodes
        flat = X.ravel()
        feature, threshold, child = self.feature, self.threshold, self.child
        base = np.tile(np.arange(0, n * d, d), self.n_trees)
        out, where = nodes, None  # where: out positions of nodes (None: all, in order)
        while True:
            for _ in range(_LEVELS_PER_CHECK):
                at = feature[nodes]
                at += base
                slot = 2 * nodes
                slot += flat[at] <= threshold[nodes]
                nodes = child[slot]
            live = feature[nodes] != _NO_CHILD
            n_live = np.count_nonzero(live)
            if 2 * n_live >= nodes.size:
                continue
            if where is None:
                out = nodes
            else:
                out[where] = nodes
            if not n_live:
                return out
            keep = np.flatnonzero(live)
            nodes, base = nodes[keep], base[keep]
            where = keep if where is None else where[keep]

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values: ``(n_samples, n_trees)``, one descent for all.

        The pairs descend tree-major, and the values come back as a
        C-contiguous ``(n_samples, n_trees)`` array, the layout every
        reduction over axis 1 has always read.
        """
        n = X.shape[0]
        values = self.value[self._leaves(X)]
        return np.ascontiguousarray(values.reshape(self.n_trees, n).T)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Ensemble mean prediction."""
        return self.predict_all(X).mean(axis=1)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Per-sample standard deviation across trees."""
        return self.predict_all(X).std(axis=1)
