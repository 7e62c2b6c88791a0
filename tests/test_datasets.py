"""Tests for repro.datasets (generators, sampling, registry)."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_REGISTRY,
    blocked_small_grid_dataset,
    fmm_dataset,
    grid_only_dataset,
    latin_hypercube_indices,
    load_dataset,
    threaded_dataset,
    uniform_sample_indices,
)
from repro.datasets.stencil_datasets import stencil_dataset_from_space
from repro.stencil.config import StencilConfigSpace
from repro.stencil.executor import StencilExecutor


class TestSampling:
    def test_uniform_sample_no_duplicates(self):
        idx = uniform_sample_indices(100, 20, random_state=0)
        assert len(idx) == 20
        assert len(set(idx.tolist())) == 20

    def test_uniform_sample_deterministic(self):
        a = uniform_sample_indices(50, 10, random_state=3)
        b = uniform_sample_indices(50, 10, random_state=3)
        np.testing.assert_array_equal(a, b)

    def test_uniform_sample_invalid(self):
        with pytest.raises(ValueError):
            uniform_sample_indices(10, 0)
        with pytest.raises(ValueError):
            uniform_sample_indices(10, 11)

    def test_latin_hypercube_spreads_over_range(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 2))
        idx = latin_hypercube_indices(X, 20, random_state=0)
        assert len(idx) == 20
        assert len(set(idx.tolist())) == 20
        # Stratified selection should cover a wide range of the first feature.
        values = np.sort(X[idx, 0])
        assert values[0] < 0.25 and values[-1] > 0.75

    def test_latin_hypercube_invalid(self):
        with pytest.raises(ValueError):
            latin_hypercube_indices(np.ones((5, 2)), 6)


class TestStencilDatasets:
    def test_blocked_dataset_structure(self, small_stencil_dataset):
        data = small_stencil_dataset
        assert data.name == "stencil-blocked"
        assert data.feature_names == ["I", "J", "K", "bi", "bj", "bk"]
        assert data.n_samples == 300
        assert np.all(data.y > 0)
        assert data.X.shape == (300, 6)

    def test_grid_only_dataset(self):
        data = grid_only_dataset(max_configs=50)
        assert data.feature_names == ["I", "J", "K"]
        assert data.n_samples == 50

    def test_threaded_dataset(self):
        data = threaded_dataset()
        assert data.feature_names == ["I", "J", "K", "threads"]
        assert data.n_samples == 128
        assert data.X[:, 3].max() == 8

    def test_subsample_determinism(self):
        a = blocked_small_grid_dataset(max_configs=100, random_state=5)
        b = blocked_small_grid_dataset(max_configs=100, random_state=5)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_custom_simulator_object(self):
        class ConstantSim:
            def times(self, configs):
                return np.full(len(configs), 0.5)

        data = grid_only_dataset(simulator=ConstantSim(), max_configs=10)
        np.testing.assert_allclose(data.y, 0.5)

    def test_real_executor_as_measurement_source(self):
        # The executor satisfies the same "times(configs)" protocol, so
        # laptop-scale spaces can use real measurements instead of the simulator.
        space = StencilConfigSpace(grid_sizes=[(8, 8, 8), (16, 16, 16)])
        data = stencil_dataset_from_space(
            space, name="real", simulator=StencilExecutor(timesteps=1, repeats=1))
        assert data.n_samples == 2
        assert np.all(data.y > 0)


class TestFmmDataset:
    def test_structure(self, small_fmm_dataset):
        data = small_fmm_dataset
        assert data.name == "fmm"
        assert data.feature_names == ["threads", "n_particles", "particles_per_leaf", "order"]
        assert np.all(data.y > 0)

    def test_full_space_size(self):
        data = fmm_dataset()
        assert data.n_samples == 16 * 3 * 7 * 11


class TestRegistry:
    def test_all_names_present(self):
        assert set(DATASET_REGISTRY) == {
            "stencil-blocked", "stencil-grid-only", "stencil-threaded", "fmm"}

    def test_load_dataset_forwards_kwargs(self):
        data = load_dataset("stencil-grid-only", max_configs=20)
        assert data.n_samples == 20

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("spec-cpu")
