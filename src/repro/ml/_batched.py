"""Level-synchronous batched construction of CART tree ensembles.

Growing a tree node by node pays Python-interpreter overhead per *node*;
for a forest that is ``n_estimators x n_nodes`` small NumPy calls.  This
module grows **all trees of a forest together, one depth level at a
time**: every frontier node of every tree is scored and partitioned in a
handful of vectorized passes over contiguous segment-grouped arrays
(``numpy.add.reduceat`` over CSR-style node segments), so the
interpreter cost is per *level*, not per node.  It is the one builder
of every tree estimator: forests, single decision trees (grown as
one-tree forests) and gradient-boosting stages.

Per level, the builder gathers with ``take``/``compress`` from one
feature-major copy of the training rows (``X`` transposed once per fit),
so every pass runs over one contiguous ``(slots,)`` array per feature:

* ``"best"``: a node's value range comes from the first and last slot of
  its presorted segment; left sums are prefix sums over the whole level
  minus each segment's base (``C1 - base``), and the feature-independent
  terms (left/right counts, leaf-size and same-node masks, the node
  sums) are computed once per level, not per feature;
* ``"random"``: count, sum(y) and sum(y^2) left of the threshold come
  from one ``np.add.reduceat(..., axis=1)`` over a ``(3, slots)`` block.

Children are laid out by :class:`_LevelSplit` (two ``compress`` calls
per slot order plus one permutation every order of the level shares) and
the level-major node arena is cut into per-tree :class:`Tree` objects by
:class:`_Arena`.

Byte identity: the returned trees equal, array for array, those of the
builder this loop replaced, which :mod:`repro.testing.tree_reference`
keeps for the tests.  Float sums stay ``np.add.reduceat`` (pairwise
within a segment; ``np.bincount`` sums sequentially and rounds
differently), the split SSE keeps the operation order
``(l2 - l1 * l1 / k_left) + (r2 - r1 * r1 / k_right)``, and random
thresholds are ``lo + (hi - lo) * rng.random(shape)``, which is how
``Generator.uniform(lo, hi)`` computes them.

RNG protocol (documented, deterministic): each tree owns one generator;
per level it draws (a) one uniform matrix of feature-subset ranks when
``max_features < n_features`` and (b) for the ``"random"`` splitter one
uniform threshold matrix over its frontier nodes x features.  A tree's
draw sequence depends only on its own frontier evolution.  Ties between
equal split scores resolve to the lowest feature index, and within a
feature to the lowest threshold.

Co-batching (growing a tree in one call with other trees): a
``"random"``-splitter tree is identical whether grown alone or
co-batched, because its node sums are per-segment ``reduceat`` sums.  A
``"best"``-splitter tree is not always: its left sums are prefix sums
over the whole level, so their rounding depends on the other trees'
slots, and candidates of equal true SSE (small deep nodes) can be
decided differently.  A fixed batch is always deterministic.

Memory: the builder materializes one slot per (tree, sample) pair —
``O(n_estimators * n * d)`` float64, plus an equally sized int64 presort
for the ``"best"`` splitter.  That is the price of level-wide batching
and is small for this repo's datasets (a few thousand rows).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _NO_CHILD, Tree
from repro.utils.rng import check_random_state

__all__ = ["build_forest_batched"]


def _tree_groups(tree_ids: np.ndarray):
    """Yield ``(tree, start, stop)`` runs of the non-decreasing id array."""
    boundaries = np.nonzero(np.diff(tree_ids))[0] + 1
    edges = np.concatenate(([0], boundaries, [len(tree_ids)]))
    for a, b in zip(edges[:-1], edges[1:], strict=True):
        yield int(tree_ids[a]), int(a), int(b)


def _exclusive_cumsum(sizes: np.ndarray) -> np.ndarray:
    """Segment starts of consecutive segments of *sizes*."""
    return np.concatenate(([0], np.cumsum(sizes)))[:-1]


class _Arena:
    """Level-major node arena of a batch of trees.

    Each level appends one chunk per node array; children of a level's
    split nodes are the next level's nodes, two per split, in order.
    :meth:`trees` cuts the arena into per-tree :class:`Tree` objects
    with nodes in per-tree level order (a valid layout: children always
    follow their parent).
    """

    def __init__(self) -> None:
        self.levels: list[tuple[np.ndarray, ...]] = []
        self.count = 0

    def add_level(self, value: np.ndarray, sizes: np.ndarray, impurity: np.ndarray,
                  tree_of: np.ndarray) -> tuple[np.ndarray, ...]:
        """Append a level of leaves; :meth:`record_splits` makes some internal."""
        F = len(sizes)
        level = (np.full(F, _NO_CHILD, dtype=np.int64), np.full(F, np.nan),
                 np.full(F, _NO_CHILD, dtype=np.int64),
                 np.full(F, _NO_CHILD, dtype=np.int64),
                 value, sizes, impurity, tree_of)
        self.levels.append(level)
        self.count += F
        return level

    def record_splits(self, level: tuple[np.ndarray, ...], nodes: np.ndarray,
                      features: np.ndarray, thresholds: np.ndarray) -> None:
        """Split *nodes* of the newest *level*; their children come next."""
        feature, threshold, left, right = level[:4]
        first_child = self.count + 2 * np.arange(len(nodes))
        feature[nodes] = features
        threshold[nodes] = thresholds
        left[nodes] = first_child
        right[nodes] = first_child + 1

    def trees(self, n_trees: int) -> list[Tree]:
        """Cut the arena into one :class:`Tree` per tree id."""
        columns = [np.concatenate(chunks) for chunks in zip(*self.levels, strict=True)]
        self.levels = []
        *fields, tree_all = columns
        del columns
        by_tree = np.argsort(tree_all, kind="stable")
        counts = np.bincount(tree_all, minlength=n_trees)
        local = np.empty(len(tree_all), dtype=np.int64)
        local[by_tree] = np.arange(len(tree_all)) - np.repeat(_exclusive_cumsum(counts), counts)
        for i in (2, 3):  # arena child ids -> per-tree node ids
            child = fields[i]
            fields[i] = np.where(child >= 0, local[np.clip(child, 0, None)], _NO_CHILD)
        bounds = np.cumsum(counts)[:-1]
        parts = [np.split(field.take(by_tree), bounds) for field in fields]
        return [
            Tree(feature=f, threshold=t, left=lt, right=rt, value=v, n_samples=n, impurity=imp)
            for f, t, lt, rt, v, n, imp in zip(*parts, strict=True)
        ]


class _LevelSplit:
    """Stable left/right partition of a level's split nodes into children.

    *go_left* is aligned with the region (the splittable nodes' slots,
    segments at *rstarts*); nodes outside *do_split* are dropped.  Child
    ``2k`` / ``2k + 1`` holds split node ``k``'s left / right slots, each
    in the order they had within the node.  :meth:`apply` lays out any
    slot order with the same segments: it compresses the left slots and
    the right slots, then applies :attr:`perm`, one permutation that
    every order of the level shares.
    """

    def __init__(self, go_left: np.ndarray, rstarts: np.ndarray, rsizes: np.ndarray,
                 do_split: np.ndarray) -> None:
        left = np.add.reduceat(go_left, rstarts, dtype=np.int64)[do_split]
        right = rsizes[do_split] - left
        self.child_sizes = np.empty(2 * left.size, dtype=np.int64)
        self.child_sizes[0::2] = left
        self.child_sizes[1::2] = right
        self.child_starts = _exclusive_cumsum(self.child_sizes)
        self.n_left = int(left.sum())
        # Where each child's slots sit in (all left slots, all right slots).
        source = np.empty_like(self.child_sizes)
        source[0::2] = _exclusive_cumsum(left)
        source[1::2] = self.n_left + _exclusive_cumsum(right)
        m2 = int(self.child_sizes.sum())
        self.perm = (np.repeat(source - self.child_starts, self.child_sizes)
                     + np.arange(m2))
        # Per region slot: 0 = left child, 1 = right child, 2 = dropped.
        side = (~go_left).view(np.int8)
        if not do_split.all():
            side = np.where(np.repeat(do_split, rsizes), side, np.int8(2))
        self.side = side

    def apply(self, slots: np.ndarray, side: np.ndarray, out: np.ndarray | None = None,
              ) -> np.ndarray:
        """Lay out *slots* (each with its *side*) in child order."""
        buf = np.empty(self.perm.size, dtype=slots.dtype)
        np.compress(side == 0, slots, out=buf[: self.n_left])
        np.compress(side == 1, slots, out=buf[self.n_left:])
        return np.take(buf, self.perm, out=out, mode="clip")  # perm is in range


def build_forest_batched(
    X: np.ndarray,
    y: np.ndarray,
    *,
    sample_sets: list[np.ndarray],
    seeds: list,
    splitter: str,
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int,
    min_impurity_decrease: float,
) -> list[Tree]:
    """Grow one :class:`Tree` per sample set, level-synchronously.

    Parameters mirror :class:`~repro.ml.tree.DecisionTreeRegressor`;
    ``max_features`` must already be resolved to an integer.  Nodes are
    numbered in per-tree level order (root = 0), which is a valid
    :class:`Tree` layout (children always follow their parent).
    """
    n_trees = len(sample_sets)
    if n_trees == 0:
        return []
    rngs = [check_random_state(seed) for seed in seeds]
    d = int(X.shape[1])
    mf = int(max_features)
    depth_limit = np.inf if max_depth is None else float(max_depth)
    presort = splitter == "best"
    if splitter not in ("best", "random"):
        raise ValueError(f"splitter must be 'best' or 'random', got {splitter!r}")

    # ---- slot arrays: one slot per (tree, training sample) instance ---- #
    sizes0 = np.array([len(s) for s in sample_sets], dtype=np.int64)
    slot_rows = np.concatenate([np.asarray(s, dtype=np.int64) for s in sample_sets])
    XT = np.ascontiguousarray(X.T).take(slot_rows, axis=1)  # feature-major slots
    ys = y.take(slot_rows)
    ys2 = ys * ys
    S = ys.size

    order = np.arange(S, dtype=np.int64)  # slots grouped by frontier node
    orderF = None
    if presort:
        # Per-feature stably sorted slot orders, maintained through splits
        # by stable partitioning (so per-node segments stay sorted).
        orderF = np.empty((d, S), dtype=np.int64)
        a = 0
        for size in sizes0.tolist():
            orderF[:, a:a + size] = a + np.argsort(XT[:, a:a + size], axis=1, kind="stable")
            a += size

    # frontier metadata (one entry per active node, grouped by tree)
    starts = _exclusive_cumsum(sizes0)
    sizes = sizes0.copy()
    tree_of = np.arange(n_trees, dtype=np.int64)
    depth = 0
    arena = _Arena()

    while sizes.size:
        s1 = np.add.reduceat(ys.take(order), starts)
        s2 = np.add.reduceat(ys2.take(order), starts)
        nf = sizes.astype(np.float64)
        value = s1 / nf
        imp = np.maximum(s2 / nf - value * value, 0.0)
        level = arena.add_level(value, sizes, imp, tree_of)

        splittable = (
            (depth < depth_limit)
            & (sizes >= min_samples_split)
            & (sizes >= 2 * min_samples_leaf)
            & (imp > 1e-15)
        )
        sp = np.nonzero(splittable)[0]
        if sp.size == 0:
            break

        # ---- region view: only the splittable nodes' slots ---- #
        K = sp.size
        rsizes = sizes[sp]
        pos_mask = None if K == sizes.size else np.repeat(splittable, sizes)
        ro = order if pos_mask is None else order.compress(pos_mask)
        m = ro.size
        rstarts = _exclusive_cumsum(rsizes)
        s1_r = s1[sp]
        s2_r = s2[sp]

        if presort:
            # Sorted segments: a node's min and max sit at its ends.
            first = starts[sp]
            lo = np.take_along_axis(XT, orderF[:, first], axis=1).T
            hi = np.take_along_axis(XT, orderF[:, first + rsizes - 1], axis=1).T
        else:
            cols = XT.take(ro, axis=1)
            lo = np.minimum.reduceat(cols, rstarts, axis=1).T
            hi = np.maximum.reduceat(cols, rstarts, axis=1).T
        nonconst = lo < hi

        # ---- per-tree RNG draws (subset ranks, then thresholds) ---- #
        tree_r = tree_of[sp]
        ranks = np.empty((K, d)) if mf < d else None
        u = None if presort else np.empty((K, d))
        if ranks is not None or u is not None:
            for t, a, b in _tree_groups(tree_r):
                if ranks is not None:
                    rngs[t].random(out=ranks[a:b])
                if u is not None:
                    rngs[t].random(out=u[a:b])
        sel = nonconst
        if ranks is not None:
            ranks = np.where(nonconst, ranks, np.inf)
            top = np.argsort(ranks, axis=1, kind="stable")[:, :mf]
            chosen = np.zeros((K, d), dtype=bool)
            np.put_along_axis(chosen, top, True, axis=1)
            sel = nonconst & chosen

        if presort:
            best_sse, best_f, best_thr = _best_splits(
                XT, ys, ys2, orderF, pos_mask, rstarts, rsizes, s1_r, s2_r, sel,
                min_samples_leaf)
        else:
            # Extra-trees threshold: Generator.uniform(lo, hi), unrolled.
            thr_all = lo + (hi - lo) * u
            clamp = nonconst & (thr_all >= hi)
            thr_all = np.where(clamp, np.nextafter(hi, lo), thr_all)

            yo_r = ys.take(ro)
            yo2_r = ys2.take(ro)
            nL = np.zeros((K, d))
            s1L = np.zeros((K, d))
            s2L = np.zeros((K, d))
            block = np.empty((3, m))
            for f in range(d):
                if not sel[:, f].any():
                    continue
                np.less_equal(cols[f], np.repeat(thr_all[:, f], rsizes), out=block[0])
                np.multiply(yo_r, block[0], out=block[1])
                np.multiply(yo2_r, block[0], out=block[2])
                nL[:, f], s1L[:, f], s2L[:, f] = np.add.reduceat(block, rstarts, axis=1)
            del cols, block
            nR = rsizes[:, None] - nL
            s1R = s1_r[:, None] - s1L
            s2R = s2_r[:, None] - s2L
            with np.errstate(divide="ignore", invalid="ignore"):
                sse = (s2L - s1L * s1L / nL) + (s2R - s1R * s1R / nR)
            valid = sel & (nL >= min_samples_leaf) & (nR >= min_samples_leaf)
            sse = np.where(valid, sse, np.inf)
            best_f = np.argmin(sse, axis=1)
            rows = np.arange(K)
            best_sse = sse[rows, best_f]
            best_thr = thr_all[rows, best_f]

        has_split = np.isfinite(best_sse)
        decrease = (imp[sp] * nf[sp] - best_sse) / nf[sp]
        do_split = has_split & (decrease >= min_impurity_decrease - 1e-15)
        K2 = int(do_split.sum())
        if K2 == 0:
            break

        # ---- stable partition of every split node's slots ---- #
        go_left = (XT.ravel().take(np.repeat(best_f * S, rsizes) + ro)
                   <= np.repeat(best_thr, rsizes))
        split = _LevelSplit(go_left, rstarts, rsizes, do_split)
        if presort:
            slot_side = np.full(S, 2, dtype=np.int8)
            slot_side[ro] = split.side
            new_orderF = np.empty((d, split.perm.size), dtype=np.int64)
            for f in range(d):
                split.apply(orderF[f], slot_side.take(orderF[f]), out=new_orderF[f])
            orderF = new_orderF
        order = split.apply(ro, split.side)

        # ---- record splits and enqueue children ---- #
        sp2 = sp[do_split]
        arena.record_splits(level, sp2, best_f[do_split], best_thr[do_split])
        starts = split.child_starts
        sizes = split.child_sizes
        tree_of = np.repeat(tree_of[sp2], 2)
        depth += 1

    return arena.trees(n_trees)


def _best_splits(XT, ys, ys2, orderF, pos_mask, rstarts, rsizes, s1_r, s2_r, sel,
                 min_samples_leaf):
    """Least-SSE threshold of every region node over its selected features.

    Returns ``(best_sse, best_f, best_thr)`` per node (``inf`` SSE where
    no valid split exists).  Candidates sit between consecutive distinct
    values of a node's presorted segment; left sums are prefix sums over
    the whole region minus each segment's base.
    """
    K = rsizes.size
    m = int(rsizes.sum())
    best_sse = np.full(K, np.inf)
    best_f = np.zeros(K, dtype=np.int64)
    best_thr = np.full(K, np.nan)
    pos = np.arange(m)
    k_left = (pos - np.repeat(rstarts, rsizes) + 1).astype(np.float64)
    k_right = np.repeat(rsizes, rsizes).astype(np.float64) - k_left
    # A candidate needs a next slot in its own node and leaves big enough
    # on both sides; only the distinct-value test depends on the feature.
    fixed_invalid = (k_left < min_samples_leaf) | (k_right < min_samples_leaf)
    fixed_invalid[rstarts + rsizes - 1] = True
    s1_rep = np.repeat(s1_r, rsizes)
    s2_rep = np.repeat(s2_r, rsizes)
    invalid = np.empty(m, dtype=bool)
    for f in range(XT.shape[0]):
        if not sel[:, f].any():
            continue
        of = orderF[f] if pos_mask is None else orderF[f].compress(pos_mask)
        xs = XT[f].take(of)
        ysf = ys.take(of)
        ysf2 = ys2.take(of)
        l1 = np.cumsum(ysf)
        l2 = np.cumsum(ysf2)
        l1 -= np.repeat(l1[rstarts] - ysf[rstarts], rsizes)
        l2 -= np.repeat(l2[rstarts] - ysf2[rstarts], rsizes)
        r1 = s1_rep - l1
        r2 = s2_rep - l2
        with np.errstate(divide="ignore", invalid="ignore"):
            # (l2 - l1 * l1 / k_left) + (r2 - r1 * r1 / k_right), in place
            sse = l1 * l1
            sse /= k_left
            np.subtract(l2, sse, out=sse)
            r1 *= r1
            r1 /= k_right
            np.subtract(r2, r1, out=r2)
            sse += r2
        np.equal(xs[1:], xs[:-1], out=invalid[:-1])
        invalid |= fixed_invalid
        np.copyto(sse, np.inf, where=invalid)
        seg_min = np.minimum.reduceat(sse, rstarts)
        seg_min[~sel[:, f]] = np.inf  # nodes that did not draw feature f
        okf = np.isfinite(seg_min)
        if not okf.any():
            continue
        posv = np.where(sse == np.repeat(seg_min, rsizes), pos, m)
        arg = np.minimum.reduceat(posv, rstarts)
        argc = np.where(okf, arg, 0)
        x_hi = xs[np.minimum(argc + 1, m - 1)]
        thr_f = 0.5 * (xs[argc] + x_hi)
        thr_f = np.where(thr_f >= x_hi, xs[argc], thr_f)
        better = okf & (seg_min < best_sse)
        best_sse = np.where(better, seg_min, best_sse)
        best_thr = np.where(better, thr_f, best_thr)
        best_f = np.where(better, f, best_f)
    return best_sse, best_f, best_thr
