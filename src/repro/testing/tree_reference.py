"""Frozen reference copy of the exact tree builder, kept for tests.

:func:`build_forest_batched` below is the exact level-synchronous
builder of :mod:`repro.ml._batched` as it stood before that module's
level loop was rewritten into fewer, leaner NumPy passes.  It is kept
verbatim as the reference the tests compare against: the rewritten
builder must return the same seven :class:`~repro.ml.tree.Tree` arrays,
byte for byte and dtype for dtype, for every input (see
``tests/test_ml_reference.py``), and ``benchmarks/test_bench_perf.py``
times the rewritten builder against it.

Nothing in :mod:`repro.ml` imports this module and no option selects
it; it lives in the installed package, like :mod:`repro.testing.faults`,
so ``tests/`` and ``benchmarks/`` can both import it.
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

    # ---- slot arrays: one row per (tree, training sample) instance ---- #
    sizes0 = np.array([len(s) for s in sample_sets], dtype=np.int64)
    Xs = np.concatenate([X[idx] for idx in sample_sets], axis=0)
    ys = np.concatenate([y[idx] for idx in sample_sets])
    ys2 = ys * ys
    S = Xs.shape[0]

    order = np.arange(S, dtype=np.int64)  # slots grouped by frontier node
    orderF = None
    if presort:
        # Per-feature stably sorted slot orders, maintained through splits
        # by stable partitioning (so per-node segments stay sorted).
        orderF = np.empty((d, S), dtype=np.int64)
        tree_offsets = np.concatenate(([0], np.cumsum(sizes0)))[:-1]
        for t in range(n_trees):
            a = int(tree_offsets[t])
            b = a + int(sizes0[t])
            orderF[:, a:b] = a + np.argsort(Xs[a:b], axis=0, kind="stable").T

    # frontier metadata (one entry per active node, grouped by tree)
    starts = np.concatenate(([0], np.cumsum(sizes0)))[:-1]
    sizes = sizes0.copy()
    tree_of = np.arange(n_trees, dtype=np.int64)
    depth = 0

    # arena: per-level chunks, concatenated at the end
    A_feature: list[np.ndarray] = []
    A_threshold: list[np.ndarray] = []
    A_left: list[np.ndarray] = []
    A_right: list[np.ndarray] = []
    A_value: list[np.ndarray] = []
    A_n: list[np.ndarray] = []
    A_imp: list[np.ndarray] = []
    A_tree: list[np.ndarray] = []
    arena_count = 0

    while sizes.size:
        F = len(sizes)
        yo = ys[order]
        yo2 = ys2[order]
        s1 = np.add.reduceat(yo, starts)
        s2 = np.add.reduceat(yo2, starts)
        nf = sizes.astype(np.float64)
        value = s1 / nf
        imp = np.maximum(s2 / nf - value * value, 0.0)

        feat_level = np.full(F, _NO_CHILD, dtype=np.int64)
        thr_level = np.full(F, np.nan)
        left_level = np.full(F, _NO_CHILD, dtype=np.int64)
        right_level = np.full(F, _NO_CHILD, dtype=np.int64)
        A_feature.append(feat_level)
        A_threshold.append(thr_level)
        A_left.append(left_level)
        A_right.append(right_level)
        A_value.append(value)
        A_n.append(sizes)
        A_imp.append(imp)
        A_tree.append(tree_of)
        arena_count += F
        next_base = arena_count  # arena id of the first child created below

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
        pos_mask = np.repeat(splittable, sizes)
        ro = order[pos_mask]
        m = ro.size
        rstarts = np.concatenate(([0], np.cumsum(rsizes)))[:-1]
        node_of = np.repeat(np.arange(K), rsizes)
        s1_r = s1[sp]
        s2_r = s2[sp]

        XO = Xs[ro]
        lo = np.minimum.reduceat(XO, rstarts, axis=0)
        hi = np.maximum.reduceat(XO, rstarts, axis=0)
        nonconst = lo < hi

        # ---- per-tree RNG draws (subset ranks, then thresholds) ---- #
        tree_r = tree_of[sp]
        sel = nonconst.copy()
        if mf < d:
            ranks = np.empty((K, d))
            for t, a, b in _tree_groups(tree_r):
                ranks[a:b] = rngs[t].random((b - a, d))
            ranks = np.where(nonconst, ranks, np.inf)
            top = np.argsort(ranks, axis=1, kind="stable")[:, :mf]
            chosen = np.zeros((K, d), dtype=bool)
            np.put_along_axis(chosen, top, True, axis=1)
            sel &= chosen

        if splitter == "random":
            thr_all = np.empty((K, d))
            for t, a, b in _tree_groups(tree_r):
                thr_all[a:b] = rngs[t].uniform(lo[a:b], hi[a:b])
            clamp = nonconst & (thr_all >= hi)
            thr_all = np.where(clamp, np.nextafter(hi, lo), thr_all)

            yo_r = ys[ro]
            yo2_r = ys2[ro]
            ML = XO <= thr_all[node_of]
            MLf = ML.astype(np.float64)
            nL = np.add.reduceat(MLf, rstarts, axis=0)
            s1L = np.add.reduceat(yo_r[:, None] * MLf, rstarts, axis=0)
            s2L = np.add.reduceat(yo2_r[:, None] * MLf, rstarts, axis=0)
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
        else:
            best_sse = np.full(K, np.inf)
            best_f = np.zeros(K, dtype=np.int64)
            best_thr = np.full(K, np.nan)
            pos = np.arange(m)
            seg_start_of = rstarts[node_of]
            seg_size_of = rsizes[node_of]
            for f in range(d):
                if not sel[:, f].any():
                    continue
                of = orderF[f][pos_mask]
                xs = Xs[of, f]
                ysf = ys[of]
                ysf2 = ys2[of]
                C1 = np.cumsum(ysf)
                C2 = np.cumsum(ysf2)
                base1 = (C1[rstarts] - ysf[rstarts])[node_of]
                base2 = (C2[rstarts] - ysf2[rstarts])[node_of]
                l1 = C1 - base1
                l2 = C2 - base2
                k_left = (pos - seg_start_of + 1).astype(np.float64)
                k_right = (seg_size_of).astype(np.float64) - k_left
                cand = np.zeros(m, dtype=bool)
                if m > 1:
                    cand[:-1] = (node_of[1:] == node_of[:-1]) & (xs[1:] != xs[:-1])
                cand &= (k_left >= min_samples_leaf) & (k_right >= min_samples_leaf)
                cand &= sel[node_of, f]
                r1 = s1_r[node_of] - l1
                r2 = s2_r[node_of] - l2
                with np.errstate(divide="ignore", invalid="ignore"):
                    sse_p = (l2 - l1 * l1 / k_left) + (r2 - r1 * r1 / k_right)
                sse_p = np.where(cand, sse_p, np.inf)
                seg_min = np.minimum.reduceat(sse_p, rstarts)
                okf = np.isfinite(seg_min)
                if not okf.any():
                    continue
                posv = np.where(sse_p == seg_min[node_of], pos, m)
                arg = np.minimum.reduceat(posv, rstarts)
                argc = np.where(okf, arg, 0)
                x_hi = xs[np.minimum(argc + 1, m - 1)]
                thr_f = 0.5 * (xs[argc] + x_hi)
                thr_f = np.where(thr_f >= x_hi, xs[argc], thr_f)
                better = okf & (seg_min < best_sse)
                best_sse = np.where(better, seg_min, best_sse)
                best_thr = np.where(better, thr_f, best_thr)
                best_f = np.where(better, f, best_f)

        has_split = np.isfinite(best_sse)
        decrease = (imp[sp] * nf[sp] - best_sse) / nf[sp]
        do_split = has_split & (decrease >= min_impurity_decrease - 1e-15)
        K2 = int(do_split.sum())
        if K2 == 0:
            break

        # ---- stable partition of every split node's slots ---- #
        dsp = do_split[node_of]
        gl_region = Xs[ro, best_f[node_of]] <= best_thr[node_of]
        glf = gl_region.astype(np.int64)
        nL_all = np.add.reduceat(glf, rstarts)
        szL = nL_all[do_split]
        szR = rsizes[do_split] - szL
        child_sizes = np.empty(2 * K2, dtype=np.int64)
        child_sizes[0::2] = szL
        child_sizes[1::2] = szR
        new_starts = np.concatenate(([0], np.cumsum(child_sizes)))[:-1]
        m2 = int(child_sizes.sum())
        idmap = np.full(K, -1, dtype=np.int64)
        idmap[np.nonzero(do_split)[0]] = np.arange(K2)
        node2_of = idmap[node_of]

        def _scatter(slots: np.ndarray, go_left: np.ndarray) -> np.ndarray:
            """Stable counting partition: left slots then right, per node."""
            g = go_left.astype(np.int64)
            cg = np.cumsum(g)
            rank_l = cg - (cg[rstarts] - g[rstarts])[node_of] - 1
            h = 1 - g
            ch = np.cumsum(h)
            rank_r = ch - (ch[rstarts] - h[rstarts])[node_of] - 1
            child = np.clip(2 * node2_of + np.where(go_left, 0, 1), 0, None)
            dest = new_starts[child] + np.where(go_left, rank_l, rank_r)
            out = np.empty(m2, dtype=np.int64)
            out[dest[dsp]] = slots[dsp]
            return out

        if presort:
            slot_go = np.zeros(S, dtype=bool)
            slot_go[ro] = gl_region
            new_orderF = np.empty((d, m2), dtype=np.int64)
            for f in range(d):
                off = orderF[f][pos_mask]
                new_orderF[f] = _scatter(off, slot_go[off])
            orderF = new_orderF
        order = _scatter(ro, gl_region)

        # ---- record splits and enqueue children ---- #
        sp2 = sp[do_split]
        feat_level[sp2] = best_f[do_split]
        thr_level[sp2] = best_thr[do_split]
        left_level[sp2] = next_base + 2 * np.arange(K2)
        right_level[sp2] = next_base + 2 * np.arange(K2) + 1
        starts = new_starts
        sizes = child_sizes
        tree_of = np.repeat(tree_of[sp2], 2)
        depth += 1

    # ---- split the level-major arena into per-tree Tree objects ---- #
    feature_all = np.concatenate(A_feature)
    threshold_all = np.concatenate(A_threshold)
    left_all = np.concatenate(A_left)
    right_all = np.concatenate(A_right)
    value_all = np.concatenate(A_value)
    n_all = np.concatenate(A_n)
    imp_all = np.concatenate(A_imp)
    tree_all = np.concatenate(A_tree)

    trees: list[Tree] = []
    arena_to_local = np.full(arena_count, -1, dtype=np.int64)
    for t in range(n_trees):
        mask = tree_all == t
        arena_to_local[mask] = np.arange(int(mask.sum()))
        lt = left_all[mask]
        rt = right_all[mask]
        trees.append(Tree(
            feature=feature_all[mask],
            threshold=threshold_all[mask],
            left=np.where(lt >= 0, arena_to_local[np.clip(lt, 0, None)], _NO_CHILD),
            right=np.where(rt >= 0, arena_to_local[np.clip(rt, 0, None)], _NO_CHILD),
            value=value_all[mask],
            n_samples=n_all[mask],
            impurity=imp_all[mask],
        ))
    return trees
