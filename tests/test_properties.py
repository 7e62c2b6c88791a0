"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import PerformanceDataset
from repro.fmm.expansions import MultiIndexSet, taylor_coefficients
from repro.fmm.octree import Octree
from repro.fmm.particles import ParticleSet
from repro.ml.metrics import mean_absolute_percentage_error, r2_score
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeRegressor
from repro.parallel.scaling import ThreadScalingModel, amdahl_speedup
from repro.parallel.threadpool import chunk_indices
from repro.stencil.blocking import block_counts, iterate_blocks
from repro.stencil.config import StencilConfig
from repro.stencil.perf_sim import StencilPerformanceSimulator

HYPOTHESIS_SETTINGS = dict(max_examples=25, deadline=None)


# --------------------------------------------------------------------------- #
# Blocking / chunking invariants
# --------------------------------------------------------------------------- #
@settings(**HYPOTHESIS_SETTINGS)
@given(
    shape=st.tuples(*[st.integers(1, 24)] * 3),
    blocks=st.tuples(*[st.integers(1, 30)] * 3),
)
def test_blocks_partition_domain(shape, blocks):
    cover = np.zeros(shape, dtype=int)
    for si, sj, sk in iterate_blocks(shape, blocks):
        cover[si, sj, sk] += 1
    assert np.all(cover == 1)
    nbi, nbj, nbk = block_counts(shape, blocks)
    assert nbi * nbj * nbk >= 1


@settings(**HYPOTHESIS_SETTINGS)
@given(n_items=st.integers(0, 200), n_chunks=st.integers(1, 50))
def test_chunk_indices_partition(n_items, n_chunks):
    chunks = chunk_indices(n_items, n_chunks)
    flat = [i for c in chunks for i in c]
    assert flat == list(range(n_items))
    if chunks:
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1


# --------------------------------------------------------------------------- #
# Scaling-law invariants
# --------------------------------------------------------------------------- #
@settings(**HYPOTHESIS_SETTINGS)
@given(threads=st.integers(1, 64), serial=st.floats(0.0, 1.0))
def test_amdahl_bounds(threads, serial):
    s = amdahl_speedup(threads, serial)
    assert 1.0 - 1e-12 <= s <= threads + 1e-12
    if serial > 0:
        assert s <= 1.0 / serial + 1e-9


@settings(**HYPOTHESIS_SETTINGS)
@given(
    threads=st.integers(1, 32),
    serial=st.floats(0.0, 0.5),
    compute=st.floats(0.0, 1.0),
    saturation=st.floats(1.0, 16.0),
    base_time=st.floats(1e-6, 10.0),
)
def test_thread_scaling_time_is_positive_and_bounded_below(threads, serial, compute,
                                                           saturation, base_time):
    model = ThreadScalingModel(serial_fraction=serial, saturation_threads=saturation,
                               compute_fraction=compute, overhead_s=0.0, numa_penalty=1.0)
    t = model.time(base_time, threads)
    assert t > 0
    # Never faster than perfect linear scaling.
    assert t >= base_time / threads - 1e-12


# --------------------------------------------------------------------------- #
# ML substrate invariants
# --------------------------------------------------------------------------- #
@settings(**HYPOTHESIS_SETTINGS)
@given(
    n=st.integers(2, 60),
    train_fraction=st.floats(0.01, 0.99),
    min_train=st.integers(1, 10),
    seed=st.integers(0, 1000),
)
def test_train_test_indices_partition(n, train_fraction, min_train, seed):
    """The split every learning-curve cell runs partitions ``range(n)``,
    with ``round(f * n)`` training rows clipped to ``[min_train, n - 1]``."""
    data = PerformanceDataset(name="rows", X=np.arange(n, dtype=float)[:, None],
                              y=np.ones(n), feature_names=["i"])
    train, test = data.train_test_indices(train_fraction=train_fraction,
                                          min_train=min_train, random_state=seed)
    np.testing.assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(n))
    assert len(train) == min(max(round(train_fraction * n), min_train), n - 1)


@settings(**HYPOTHESIS_SETTINGS)
@given(
    data=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=40),
    scale=st.floats(0.1, 10.0),
)
def test_standard_scaler_is_affine_invariant_target(data, scale):
    X = np.array(data).reshape(-1, 1)
    if np.std(X) < 1e-9:
        return
    scaler = StandardScaler()
    Z1 = scaler.fit_transform(X)
    Z2 = StandardScaler().fit_transform(X * scale)
    np.testing.assert_allclose(Z1, Z2, atol=1e-8)


@settings(**HYPOTHESIS_SETTINGS)
@given(
    y=st.lists(st.floats(0.1, 1e3), min_size=2, max_size=30),
)
def test_mape_zero_iff_exact_and_scale_invariant(y):
    y = np.array(y)
    assert mean_absolute_percentage_error(y, y) == 0.0
    assert mean_absolute_percentage_error(3 * y, 3 * y * 1.1) == pytest.approx(
        mean_absolute_percentage_error(y, 1.1 * y))


@settings(**HYPOTHESIS_SETTINGS)
@given(
    n=st.integers(10, 80),
    depth=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_tree_predictions_bounded_by_training_targets(n, depth, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, size=(n, 3))
    y = rng.uniform(-10, 10, size=n)
    model = DecisionTreeRegressor(max_depth=depth, random_state=seed).fit(X, y)
    queries = rng.uniform(-50, 50, size=(20, 3))
    preds = model.predict(queries)
    assert preds.min() >= y.min() - 1e-9
    assert preds.max() <= y.max() + 1e-9
    # Training-set R^2 never negative for a fitted tree (it can only improve
    # on the constant mean predictor).
    assert r2_score(y, model.predict(X)) >= -1e-9


# --------------------------------------------------------------------------- #
# FMM invariants
# --------------------------------------------------------------------------- #
@settings(**HYPOTHESIS_SETTINGS)
@given(
    n=st.integers(1, 120),
    q=st.integers(1, 40),
    seed=st.integers(0, 1000),
)
def test_octree_invariants_hold_for_random_inputs(n, q, seed):
    rng = np.random.default_rng(seed)
    particles = ParticleSet(rng.uniform(-1, 1, (n, 3)), rng.uniform(0.1, 1.0, n))
    tree = Octree(particles, max_per_leaf=q)
    tree.validate()
    assert sum(leaf.n_particles for leaf in tree.leaves) == n


@settings(**HYPOTHESIS_SETTINGS)
@given(
    rx=st.floats(0.5, 3.0), ry=st.floats(-3.0, 3.0), rz=st.floats(-3.0, 3.0),
    tx=st.floats(-0.1, 0.1), ty=st.floats(-0.1, 0.1), tz=st.floats(-0.1, 0.1),
)
def test_taylor_expansion_converges_for_well_separated_points(rx, ry, rz, tx, ty, tz):
    mset = MultiIndexSet(6)
    R = np.array([[rx, ry, rz]])
    t = np.array([tx, ty, tz])
    T = taylor_coefficients(mset, R)[:, 0]
    exact = 1.0 / np.linalg.norm(R[0] + t)
    approx = float(mset.monomials(t.reshape(1, 3))[0] @ T)
    # |t| <= 0.18, |R| >= 0.5, so the series converges; demand 4 digits.
    assert approx == pytest.approx(exact, rel=5e-3)


# --------------------------------------------------------------------------- #
# Performance-simulator invariants
# --------------------------------------------------------------------------- #
@settings(**HYPOTHESIS_SETTINGS)
@given(
    j=st.integers(2, 8), k=st.integers(2, 8),
    bj=st.integers(1, 8), bk=st.integers(1, 8),
    threads=st.integers(1, 16),
)
def test_stencil_simulator_always_positive_and_finite(j, k, bj, bk, threads):
    sim = StencilPerformanceSimulator(noise=0.02)
    config = StencilConfig(I=1, J=16 * j, K=16 * k, bi=1, bj=bj, bk=bk, threads=threads)
    t = sim.time(config)
    assert np.isfinite(t) and t > 0
