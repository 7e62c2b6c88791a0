"""The exact tree builder against its frozen reference.

:func:`repro.ml._batched.build_forest_batched` grows each tree level in
a few lean NumPy passes; :mod:`repro.testing.tree_reference` keeps the
builder it replaced.  Every :class:`~repro.ml.tree.Tree` array must match
the reference byte for byte, dtype included, for every input: rows,
MAPEs and sweep digests all rest on it.  Targets are continuous and of
both signs (integer targets sum exactly in any order and would hide a
change of summation order), and some are drawn from a small pool of
values so that different partitions tie in true SSE and rounding decides
between them.  No tree digest is pinned: the bits depend on the CPU.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    BaggingRegressor,
    DecisionTreeRegressor,
    ExtraTreesRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
    _batched,
)
from repro.ml._batched import build_forest_batched
from repro.testing.tree_reference import build_forest_batched as build_forest_reference

FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")


def assert_trees_byte_identical(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        for field in FIELDS:
            x, r = getattr(a, field), getattr(b, field)
            assert x.dtype == r.dtype, (i, field, x.dtype, r.dtype)
            assert x.shape == r.shape, (i, field, x.shape, r.shape)
            assert x.tobytes() == r.tobytes(), (i, field)


@st.composite
def builder_inputs(draw):
    """``(X, y, params)`` spanning the builder's input space (bar the splitter).

    Hypothesis picks the kind of each input; sizes and values come from a
    seeded generator, so most examples are big enough (several features,
    tens of rows, many trees) for rounding to decide some split.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 61))
    d = int(rng.integers(1, 6))
    if draw(st.booleans()):
        X = rng.choice([0.0, 0.5, 1.0, 2.5, 4.0], size=(n, d))  # tied grid
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, d)) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        X[:, int(rng.integers(0, d))] = rng.normal()  # a constant column
    scale = 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        y = rng.normal(size=n) * scale
    else:
        pool = rng.normal(size=int(rng.integers(2, 5))) * scale
        y = rng.choice(pool, size=n)
    n_trees = int(rng.integers(1, 21))
    kind = draw(st.sampled_from(["arange", "bootstrap", "subset"]))
    if kind == "arange":
        sample_sets = [np.arange(n) for _ in range(n_trees)]
    elif kind == "bootstrap":  # duplicate rows, as RandomForestRegressor draws
        sample_sets = [rng.integers(0, n, size=n) for _ in range(n_trees)]
    else:  # shuffled subsets of differing sizes, as BaggingRegressor draws
        sample_sets = [rng.permutation(n)[: rng.integers(1, n + 1)] for _ in range(n_trees)]
    params = dict(
        sample_sets=sample_sets,
        seeds=[int(s) for s in rng.integers(0, 2**31, size=n_trees)],
        max_depth=draw(st.one_of(st.none(), st.integers(1, 8))),
        min_samples_split=draw(st.integers(2, 5)),
        min_samples_leaf=draw(st.integers(1, 4)),
        max_features=int(rng.integers(1, d + 1)),
        min_impurity_decrease=draw(st.sampled_from([0.0, 0.0, 1e-3, 0.05])) * scale**2,
    )
    return X, y, params


class TestReferenceEquality:
    @settings(max_examples=300, deadline=None)
    @given(case=builder_inputs())
    def test_trees_byte_identical_to_reference(self, case):
        X, y, params = case
        for splitter in ("best", "random"):
            assert_trees_byte_identical(
                build_forest_batched(X, y, splitter=splitter, **params),
                build_forest_reference(X, y, splitter=splitter, **params))

    def test_forest_scale_fits_match(self):
        """Two fits the size of the sweep's largest, one per splitter."""
        rng = np.random.default_rng(7)
        X = rng.uniform(0.0, 8.0, size=(1500, 4))
        X[:, 1] = np.round(X[:, 1])
        y = np.sin(X[:, 0]) * 50.0 - X[:, 2] * X[:, 3] + rng.normal(size=1500)
        for splitter, max_features, bootstrap in (("best", 2, True), ("random", 4, False)):
            params = dict(
                sample_sets=[rng.integers(0, 1500, size=1500) if bootstrap
                             else np.arange(1500) for _ in range(8)],
                seeds=list(range(8)), splitter=splitter, max_depth=None,
                min_samples_split=2, min_samples_leaf=1, max_features=max_features,
                min_impurity_decrease=0.0)
            assert_trees_byte_identical(build_forest_batched(X, y, **params),
                                        build_forest_reference(X, y, **params))


class TestUniformIdentity:
    """The random splitter draws ``lo + (hi - lo) * rng.random(shape)``
    where the reference called ``rng.uniform(lo, hi)``; NumPy computes
    ``low + range * next_double`` in C, so the two agree unless a
    platform fuses that multiply-add."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 30),
                                                          st.integers(1, 6)),
           exponent=st.integers(-3, 3), equal=st.booleans())
    def test_unrolled_uniform_matches_generator_uniform(self, seed, shape, exponent,
                                                        equal):
        bounds = np.random.default_rng(seed ^ 0x5EED)
        lo = bounds.uniform(-1.0, 1.0, size=shape) * 10.0**exponent
        hi = lo if equal else lo + bounds.uniform(0.0, 2.0, size=shape) * 10.0**exponent
        want = np.random.default_rng(seed).uniform(lo, hi)
        got = lo + (hi - lo) * np.random.default_rng(seed).random(shape)
        assert got.tobytes() == want.tobytes()


class TestPatchedBuilder:
    """Every tree fit reads the builder off :mod:`repro.ml._batched` when
    it runs, so patching that attribute, as the engine benchmark does to
    time the reference, reaches trees, forests, boosting stages and
    bagged trees alike."""

    @pytest.mark.parametrize("make", [
        lambda: DecisionTreeRegressor(random_state=0),
        lambda: RandomForestRegressor(n_estimators=3, random_state=0),
        lambda: ExtraTreesRegressor(n_estimators=3, random_state=0),
        lambda: GradientBoostingRegressor(n_estimators=3, random_state=0),
        lambda: BaggingRegressor(n_estimators=3, random_state=0),
    ], ids=["decision_tree", "random_forest", "extra_trees", "boosting", "bagging"])
    def test_patched_builder_grows_every_fit(self, monkeypatch, make):
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 4.0, size=(80, 3))
        y = np.sin(X[:, 0]) * 10.0 - X[:, 1] + rng.normal(size=80)
        want = make().fit(X, y).predict(X)
        calls = []

        def reference(*args, **kwargs):
            calls.append(len(kwargs["sample_sets"]))
            return build_forest_reference(*args, **kwargs)

        monkeypatch.setattr(_batched, "build_forest_batched", reference)
        model = make().fit(X, y)
        assert sum(calls) == len(getattr(model, "estimators_", [model]))
        assert model.predict(X).tobytes() == want.tobytes()
