"""Histogram-binned split search (``tree_method="hist"``).

The exact builder (:mod:`repro.ml._batched`) scans every distinct
threshold of every candidate feature at every node, which dominates fit
time on the larger learning-curve datasets.  This module
implements the LightGBM-style alternative: each feature is quantized
**once at fit time** to at most ``max_bins`` quantile bins, and split
search afterwards operates on small integer *bin codes* instead of the
raw floating-point columns.

Protocol
--------
*Binning* (:func:`compute_bin_edges`): per feature, up to
``max_bins - 1`` strictly increasing edges.  When the feature has at
most ``max_bins`` distinct values the edges are the midpoints of
consecutive distinct values (guarded against rounding onto the upper
value), so the candidate-threshold set is **identical** to the exact
splitter's and histogram search degenerates to exact search.  Otherwise
the edges are interior quantiles of the feature distribution.  A value
``x`` gets code ``searchsorted(edges, x, side="left")``, so the split
predicate ``code <= b`` is exactly ``x <= edges[b]`` — fitted trees
store ordinary float thresholds and predict without any binning state.

*Split search*: trees grow level-synchronously (all trees of a forest
together, like :mod:`repro.ml._batched`).  Per splittable node the
builder accumulates histograms of ``(count, sum(y))`` over
``(feature, bin)`` with :func:`numpy.bincount` on flattened
``node x bin`` keys, then scores *every* bin boundary of every
considered feature in one vectorized cumulative-sum pass — O(bins)
candidate positions per feature instead of O(distinct thresholds).
The sum-of-squares term of the split SSE is constant per node, so
minimizing SSE is maximizing the *gain* ``lsum^2/ln + rsum^2/rn`` and
no third histogram is needed.

*Local bin mapping*: a node deep in a tree concentrates on a narrow
slice of each feature's code range.  Instead of histogramming global
bin indices (which would need ``max_bins`` cells per node or lose
resolution to global coarsening), each ``(node, feature)`` maps codes
through ``(code - lo) >> shift`` where ``lo`` is the node's smallest
code and ``shift`` the smallest coarsening that fits the node's code
span into the level's histogram width.  Tiny nodes therefore keep
*exact* threshold resolution in a handful of cells; only nodes whose
span exceeds the level width lose granularity.  The level width adapts
to a per-level cell budget (``nodes x features x width <=
level_budget``), so shallow levels (few, large nodes) run at full
``max_bins`` resolution while deep levels (many tiny nodes) stay cheap.

*Histogram subtraction*: when a level's split nodes are large relative
to their histograms, only the **smaller** child's histogram is
accumulated from its samples and the sibling is obtained as
``parent - smaller`` (counts are exact in float64; the summed y pick up
only additive rounding noise).  Carried children inherit the parent's
bin mapping so the subtraction is cell-aligned.  Deep levels — many
tiny nodes, where assembling carried histograms would cost more than
the per-sample re-accumulation it saves — fall back to direct
accumulation; the crossover is a simple per-level cost model.

RNG protocol: per tree per level, one uniform ``(nodes, features)``
matrix of feature-subset ranks when ``max_features < n_features``, then
for the ``"random"`` splitter one uniform ``(nodes, features)`` matrix
that selects a bin boundary uniformly from each node's occupied local
bin range (the binned analogue of the extra-trees uniform threshold).
As in the exact builder, a tree's RNG stream depends only on its own
frontier evolution — but unlike the exact builder, the *split
resolution* does not: the cell budget divides by the aggregate frontier
size of all co-batched trees, so once it binds (deep levels of large
forests) a tree may coarsen earlier than it would grown alone.  Trees
are therefore identical alone vs co-batched only while the budget is
slack (small forests, shallow depths, or a generous ``level_budget``);
a fixed forest is always deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from repro.ml._batched import _Arena, _exclusive_cumsum, _LevelSplit, _tree_groups
from repro.ml.tree import Tree
from repro.utils.rng import check_random_state

__all__ = ["compute_bin_edges", "bin_dataset", "build_forest_hist"]

#: Default number of quantile bins per feature (LightGBM-style).
DEFAULT_MAX_BINS = 256

#: Floor on the per-level histogram width under budget coarsening.
_MIN_WIDTH = 4

#: Default cap on ``nodes x features x width`` histogram cells per level.
_LEVEL_BUDGET = 1 << 20


def _pow2ceil(value: int) -> int:
    """Smallest power of two >= *value* (>= 1)."""
    return 1 << max(0, int(value - 1).bit_length())


def _pow2floor(value: int) -> int:
    """Largest power of two <= *value* (>= 1)."""
    return 1 << max(0, int(value).bit_length() - 1)


def compute_bin_edges(X: np.ndarray, max_bins: int = DEFAULT_MAX_BINS) -> list[np.ndarray]:
    """Per-feature strictly increasing bin edges (at most ``max_bins - 1`` each).

    Exactness guarantee: a feature with at most ``max_bins`` distinct
    values gets one edge *between every pair* of consecutive distinct
    values (the midpoint, lowered onto the left value when the midpoint
    rounds onto the right one), so binned split search considers exactly
    the thresholds the exact splitter would.
    """
    if max_bins < 2:
        raise ValueError(f"max_bins must be >= 2, got {max_bins}")
    edges: list[np.ndarray] = []
    for f in range(X.shape[1]):
        uniq = np.unique(X[:, f])
        if uniq.size <= 1:
            edges.append(np.empty(0, dtype=np.float64))
            continue
        if uniq.size <= max_bins:
            e = 0.5 * (uniq[:-1] + uniq[1:])
            # Midpoints that round up onto the right value would merge the
            # two values into one bin; the left value itself separates them.
            bad = e >= uniq[1:]
            e[bad] = uniq[:-1][bad]
        else:
            qs = np.quantile(X[:, f], np.arange(1, max_bins) / max_bins)
            e = np.unique(qs)
        edges.append(np.asarray(e, dtype=np.float64))
    return edges


def bin_dataset(X: np.ndarray, max_bins: int = DEFAULT_MAX_BINS,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Quantize *X* to integer bin codes.

    Returns ``(codes, edges_pad)`` where ``codes[i, f]`` is the bin index
    of ``X[i, f]`` (``uint8`` when the code range allows it) and
    ``edges_pad`` is a ``(n_features, max_edges)`` float array of the
    edges padded with ``+inf``; ``codes[i, f] <= b`` is equivalent to
    ``X[i, f] <= edges_pad[f, b]`` for every in-range boundary ``b``.
    """
    edges = compute_bin_edges(X, max_bins)
    n_edges = max(e.size for e in edges) if edges else 0
    dtype = np.uint8 if max(n_edges, 1) <= np.iinfo(np.uint8).max else np.uint16
    codes = np.empty(X.shape, dtype=dtype)
    edges_pad = np.full((X.shape[1], max(n_edges, 1)), np.inf)
    for f, e in enumerate(edges):
        codes[:, f] = np.searchsorted(e, X[:, f], side="left")
        edges_pad[f, : e.size] = e
    return codes, edges_pad


def _local_shift(span: np.ndarray, width: int) -> np.ndarray:
    """Smallest per-cell shift so ``span >> shift < width`` everywhere."""
    shift = np.zeros(span.shape, dtype=np.int64)
    while True:
        over = (span >> shift) >= width
        if not over.any():
            return shift
        shift[over] += 1


def _accumulate(cols: list[np.ndarray], y_sub: np.ndarray, node_rank: np.ndarray,
                mlo: np.ndarray, mshift: np.ndarray, n_nodes: int, width: int,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(count, sum(y))`` histograms via ``bincount``.

    ``cols[f]`` holds the slots' codes of feature ``f`` (contiguous);
    ``mlo``/``mshift`` are the ``(n_nodes, n_features)`` local bin
    mappings.  One flattened ``node * width + bin`` key per feature; two
    bincounts per feature — O(samples) accumulation regardless of the
    number of nodes.
    """
    d = len(cols)
    cnt = np.empty((n_nodes, d, width))
    s1 = np.empty((n_nodes, d, width))
    base = node_rank * np.int64(width)
    size = n_nodes * width
    for f in range(d):
        if mshift[:, f].any():
            key = base + ((cols[f] - mlo[:, f][node_rank]) >> mshift[:, f][node_rank])
        else:
            # Zero-shift fast path (tiny nodes, exact resolution): fold the
            # per-node offset into the key base.
            key = (base - mlo[:, f][node_rank]) + cols[f]
        cnt[:, f] = np.bincount(key, minlength=size).reshape(n_nodes, width)
        s1[:, f] = np.bincount(key, weights=y_sub, minlength=size).reshape(n_nodes, width)
    return cnt, s1


def _coarsen(hist: np.ndarray, factor: int) -> np.ndarray:
    """Merge *factor* adjacent cells (pairwise sums for powers of two)."""
    if factor == 1:
        return hist
    n_nodes, d, width = hist.shape
    return hist.reshape(n_nodes, d, width // factor, factor).sum(axis=3)


def build_forest_hist(
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
    max_bins: int = DEFAULT_MAX_BINS,
    level_budget: int = _LEVEL_BUDGET,
    prebinned: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[Tree]:
    """Grow one :class:`Tree` per sample set with histogram split search.

    Parameters mirror :func:`repro.ml._batched.build_forest_batched` plus
    the binning knobs ``max_bins`` (quantile bins per feature) and
    ``level_budget`` (histogram-cell cap per level, see module docs).
    ``prebinned`` optionally supplies ``(codes, edges_pad)`` from a prior
    :func:`bin_dataset` call over the rows of *X* (gradient boosting fits
    one tree per stage on the same matrix: quantize once, not per stage).
    Nodes are numbered in per-tree level order, a valid :class:`Tree`
    layout.
    """
    n_trees = len(sample_sets)
    if n_trees == 0:
        return []
    if splitter not in ("best", "random"):
        raise ValueError(f"splitter must be 'best' or 'random', got {splitter!r}")
    rngs = [check_random_state(seed) for seed in seeds]
    d = int(X.shape[1])
    mf = int(max_features)
    msl = int(min_samples_leaf)
    depth_limit = np.inf if max_depth is None else float(max_depth)

    codes, edges_pad = prebinned if prebinned is not None else bin_dataset(X, max_bins)
    if codes.shape != X.shape:
        raise ValueError(
            f"prebinned codes shape {codes.shape} does not match X {X.shape}")
    max_width = _pow2ceil(edges_pad.shape[1] + 1)

    # ---- slot arrays: one row per (tree, training sample) instance ---- #
    sizes0 = np.array([len(s) for s in sample_sets], dtype=np.int64)
    codes_s = np.concatenate([codes[idx] for idx in sample_sets], axis=0)
    # Contiguous per-feature code columns (cheap per-level gathers).
    code_cols = [np.ascontiguousarray(codes_s[:, f]) for f in range(d)]
    ys = np.concatenate([y[idx] for idx in sample_sets])
    ys2 = ys * ys
    S = codes_s.shape[0]

    order = np.arange(S, dtype=np.int64)  # slots grouped by frontier node
    starts = _exclusive_cumsum(sizes0)
    sizes = sizes0.copy()
    tree_of = np.arange(n_trees, dtype=np.int64)
    depth = 0
    # Carried state for the whole frontier: (cnt, s1, mlo, mshift) with
    # histograms in the parent's bin mapping, or None to re-accumulate.
    carried = None

    arena = _Arena()

    while sizes.size:
        yo = ys[order]
        yo2 = ys2[order]
        s1_node = np.add.reduceat(yo, starts)
        s2_node = np.add.reduceat(yo2, starts)
        nf = sizes.astype(np.float64)
        value = s1_node / nf
        imp = np.maximum(s2_node / nf - value * value, 0.0)

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
        K = sp.size

        # ---- region view + per-(node, feature) code ranges ---- #
        pos_mask = np.repeat(splittable, sizes)
        ro = order[pos_mask]
        rsizes = sizes[sp]
        node_of = np.repeat(np.arange(K), rsizes)
        rstarts = _exclusive_cumsum(rsizes)
        cols = [c[ro] for c in code_cols]
        lo = np.empty((K, d), dtype=np.int64)
        hi = np.empty((K, d), dtype=np.int64)
        for f in range(d):
            lo[:, f] = np.minimum.reduceat(cols[f], rstarts)
            hi[:, f] = np.maximum.reduceat(cols[f], rstarts)
        nonconst = hi > lo

        # ---- histograms of the splittable nodes ---- #
        budget_width = max(_MIN_WIDTH, _pow2floor(max(1, level_budget // (K * d))))
        if carried is None:
            span = hi - lo
            width = max(2, min(max_width, budget_width,
                               _pow2ceil(int(span.max()) + 1)))
            mlo = lo
            mshift = _local_shift(span, width)
            cnt, h1 = _accumulate(cols, ys[ro], node_of, mlo, mshift, K, width)
        else:
            cnt, h1, mlo, mshift = carried
            cnt = cnt[sp]
            h1 = h1[sp]
            mlo = mlo[sp]
            mshift = mshift[sp]
            width = cnt.shape[2]
            if width > budget_width:
                factor = width // budget_width
                cnt = _coarsen(cnt, factor)
                h1 = _coarsen(h1, factor)
                mshift = mshift + int(np.log2(factor))
                width = budget_width

        # Occupied local bin range of every (node, feature) cell row.
        lo_bin = (lo - mlo) >> mshift
        hi_bin = (hi - mlo) >> mshift

        # ---- feature selection (RNG subset among non-constant) ---- #
        tree_r = tree_of[sp]
        sel = None
        if mf < d:
            ranks = np.empty((K, d))
            for t, a, b in _tree_groups(tree_r):
                ranks[a:b] = rngs[t].random((b - a, d))
            ranks = np.where(nonconst, ranks, np.inf)
            top = np.argsort(ranks, axis=1, kind="stable")[:, :mf]
            chosen = np.zeros((K, d), dtype=bool)
            np.put_along_axis(chosen, top, True, axis=1)
            sel = nonconst & chosen

        # ---- score bin boundaries from cumulative histograms ---- #
        CC = np.cumsum(cnt, axis=2)
        C1 = np.cumsum(h1, axis=2)
        tot_n = CC[:, :, -1:]
        tot_1 = C1[:, :, -1:]
        rows = np.arange(K)
        if splitter == "best":
            nL = CC[:, :, :-1]
            l1 = C1[:, :, :-1]
            nR = tot_n - nL
            with np.errstate(divide="ignore", invalid="ignore"):
                # gain = l1^2/nL + (tot1-l1)^2/nR, computed in place;
                # minimizing split SSE == maximizing gain (the y^2 term
                # is constant per node).
                gain = l1 * l1
                gain /= nL
                acc = tot_1 - l1
                acc *= acc
                acc /= nR
                gain += acc
            invalid = nL < msl
            invalid |= nR < msl
            if sel is not None:
                invalid |= ~sel[:, :, None]
            np.copyto(gain, -np.inf, where=invalid)
            flat = gain.reshape(K, d * (width - 1))
            best_flat = np.argmax(flat, axis=1)
            best_gain = flat[rows, best_flat]
            best_f = best_flat // (width - 1)
            best_b = best_flat % (width - 1)
        else:  # random splitter: one value-uniform threshold per feature
            u = np.empty((K, d))
            for t, a, b in _tree_groups(tree_r):
                u[a:b] = rngs[t].random((b - a, d))
            # Draw a threshold uniformly over the node's (estimated) value
            # range and snap it to the nearest bin boundary, so boundary
            # probabilities are weighted by value gaps — the binned
            # analogue of the extra-trees uniform threshold.  The node's
            # min/max values and the per-bin values are estimated by bin
            # centers (for lossless midpoint edges the center of a value's
            # two enclosing edges is close to the value itself).
            frows = np.arange(d)[None, :]
            n_pad = edges_pad.shape[1]

            def _center(code):
                left = edges_pad[frows, np.maximum(code - 1, 0)]
                right = edges_pad[frows, np.minimum(code, n_pad - 1)]
                right = np.where(np.isfinite(right), right, left)
                return 0.5 * (left + right)

            v_lo = _center(lo)
            v_hi = _center(hi)
            with np.errstate(invalid="ignore"):
                # Constant features have no finite edges (inf - inf): the
                # resulting NaNs are masked out by ``nonconst`` below.
                t_val = v_lo + u * (v_hi - v_lo)
            c_glob = np.empty((K, d), dtype=np.int64)
            for f in range(d):
                c_glob[:, f] = np.searchsorted(edges_pad[f], t_val[:, f],
                                               side="right")
            # t landed inside bin c_glob: split below or above that bin's
            # value depending on which side of the bin center t fell.
            c_glob = c_glob - (t_val < _center(np.maximum(c_glob, 1)))
            c_glob = np.maximum(np.minimum(c_glob, hi - 1), lo)
            bnd = (c_glob - mlo) >> mshift
            bnd = np.maximum(np.minimum(bnd, hi_bin - 1), lo_bin)
            bnd3 = bnd[:, :, None]
            nL = np.take_along_axis(CC, bnd3, axis=2)[:, :, 0]
            l1 = np.take_along_axis(C1, bnd3, axis=2)[:, :, 0]
            nR = tot_n[:, :, 0] - nL
            r1 = tot_1[:, :, 0] - l1
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = l1 * l1 / nL + r1 * r1 / nR
            valid = (hi_bin > lo_bin) & (nL >= msl) & (nR >= msl)
            valid &= sel if sel is not None else nonconst
            gain = np.where(valid, gain, -np.inf)
            best_f = np.argmax(gain, axis=1)
            best_gain = gain[rows, best_f]
            best_b = bnd[rows, best_f]

        # decrease * n = gain - (sum y)^2 / n  (parent's own "gain").
        s1_r = s1_node[sp]
        has_split = np.isfinite(best_gain)
        decrease = (best_gain - s1_r * s1_r / nf[sp]) / nf[sp]
        do_split = has_split & (decrease >= min_impurity_decrease - 1e-15)
        K2 = int(do_split.sum())
        if K2 == 0:
            break

        # Local boundary b covers original codes up to thr_code.
        mlo_b = mlo[rows, best_f]
        thr_code = mlo_b + ((best_b + 1) << mshift[rows, best_f]) - 1
        best_thr = edges_pad[best_f, np.minimum(thr_code, edges_pad.shape[1] - 1)]

        # ---- stable partition of every split node's slots ---- #
        gl_region = codes_s[ro, best_f[node_of]] <= thr_code[node_of]
        split = _LevelSplit(gl_region, rstarts, rsizes, do_split)
        szL, szR = split.left_sizes, split.right_sizes
        child_sizes = split.child_sizes
        m2 = split.perm.size
        order = split.apply(ro, split.side)

        # ---- histogram-subtraction trick, where it pays ---- #
        # Carrying child histograms means accumulating only the smaller
        # child of every split and deriving the sibling as parent - child
        # (in the parent's bin mapping).  It saves per-sample accumulation
        # but costs O(children x features x width) assembly; a per-level
        # cost model picks (shallow levels: few big nodes -> subtract;
        # deep levels: many tiny nodes -> direct re-accumulation).
        m_small = int(np.minimum(szL, szR).sum())
        subtract_cost = 2 * m_small * d + 8 * K2 * d * width
        direct_cost = 2 * m2 * d
        if subtract_cost < direct_cost:
            left_smaller = szL <= szR
            small_child = 2 * np.arange(K2) + np.where(left_smaller, 0, 1)
            is_small = np.zeros(2 * K2, dtype=bool)
            is_small[small_child] = True
            child_of_slot = np.repeat(np.arange(2 * K2), child_sizes)
            small_mask = is_small[child_of_slot]
            small_slots = order[small_mask]
            small_rank = np.full(2 * K2, -1, dtype=np.int64)
            small_rank[small_child] = np.arange(K2)
            rank_of_slot = small_rank[child_of_slot[small_mask]]
            mloP = mlo[do_split]
            mshiftP = mshift[do_split]
            cntS, h1S = _accumulate([c[small_slots] for c in code_cols],
                                    ys[small_slots], rank_of_slot,
                                    mloP, mshiftP, K2, width)
            large_child = 2 * np.arange(K2) + np.where(left_smaller, 1, 0)
            cntC = np.empty((2 * K2, d, width))
            h1C = np.empty((2 * K2, d, width))
            cntC[small_child] = cntS
            h1C[small_child] = h1S
            cntC[large_child] = cnt[do_split] - cntS
            h1C[large_child] = h1[do_split] - h1S
            carried = (cntC, h1C, np.repeat(mloP, 2, axis=0),
                       np.repeat(mshiftP, 2, axis=0))
        else:
            carried = None

        # ---- record splits and enqueue children ---- #
        sp2 = sp[do_split]
        arena.record_splits(level, sp2, best_f[do_split], best_thr[do_split])
        starts = split.child_starts
        sizes = child_sizes
        tree_of = np.repeat(tree_of[sp2], 2)
        depth += 1

    return arena.trees(n_trees)
