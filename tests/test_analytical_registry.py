"""Every registered analytical model predicts a batch as it predicts a row.

``predict_rows`` is the path every cache warm, hybrid fit and served
request takes; ``predict_config(config_from_features(row))`` is the
reference it must equal bit for bit, and reject the same rows as.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical import StencilAnalyticalModel
from repro.analytical.base import AnalyticalModel
from repro.datasets.store import DatasetSpec
from repro.experiments.plan import _ANALYTICAL_BUILDERS, build_analytical

REGISTRY_KEYS = sorted(_ANALYTICAL_BUILDERS)
DATASETS = ("stencil-blocked", "stencil-grid-only", "stencil-threaded", "fmm")

#: Valid integer range of each modeling-vector column, kept small enough
#: that every product the models form is an exact float64 integer.
STENCIL_RANGES = {"I": (1, 4096), "J": (1, 4096), "K": (1, 4096),
                  "bi": (0, 5000), "bj": (0, 5000), "bk": (0, 5000),
                  "unroll": (0, 8), "threads": (1, 64)}
FMM_RANGES = {"threads": (1, 64), "n_particles": (1, 10**7),
              "particles_per_leaf": (1, 5000), "order": (1, 20)}
#: Out-of-range values per column, for the rows both paths must reject.
STENCIL_INVALID = {"I": [0, -3], "J": [0, -1], "K": [0, -7],
                   "bi": [-1, -40], "bj": [-1], "bk": [-2],
                   "unroll": [9, -1, 100], "threads": [0, -2]}
FMM_INVALID = {name: [0, -5] for name in FMM_RANGES}


@pytest.fixture(scope="module")
def datasets():
    return {name: DatasetSpec(name).build() for name in DATASETS}


def per_row(model, X, feature_names):
    """The reference: one configuration rebuilt and predicted per row."""
    return np.array([model.predict_config(model.config_from_features(row, feature_names))
                     for row in X], dtype=np.float64)


def assert_bit_identical(actual, expected):
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def with_options(key, write_allocate, timesteps):
    """Registry model *key*, its stencil model built with the given options."""
    model = build_analytical(key)
    if isinstance(model, StencilAnalyticalModel):
        return StencilAnalyticalModel(write_allocate=write_allocate, timesteps=timesteps)
    if hasattr(model, "base"):
        model.base = StencilAnalyticalModel(write_allocate=write_allocate,
                                            timesteps=timesteps)
    return model


def layout(key):
    """Column ranges and invalid values of the configuration *key* reads."""
    model = build_analytical(key)
    if isinstance(getattr(model, "base", model), StencilAnalyticalModel):
        return STENCIL_RANGES, STENCIL_INVALID
    return FMM_RANGES, FMM_INVALID


@st.composite
def random_batches(draw, key, including=None):
    """A feature layout (a shuffled subset of the model's columns) and rows.

    Each value is an in-range integer plus an offset that rounds back to
    it (half-way values included, which round half to even on both paths).
    The layout holds column *including* when one is named.
    """
    ranges, _ = layout(key)
    names = draw(st.permutations(sorted(ranges)))
    names = names[:draw(st.integers(1, len(names)))]
    if including is not None and including not in names:
        names[draw(st.integers(0, len(names) - 1))] = including
    n = draw(st.integers(0, 12))
    X = np.empty((n, len(names)))
    for j, name in enumerate(names):
        lo, hi = ranges[name]
        for i in range(n):
            value = draw(st.integers(lo, hi))
            offset = draw(st.sampled_from([0.0, 0.25, -0.25, 0.49, -0.49, 0.5, -0.5]))
            if round(value + offset) < lo or round(value + offset) > hi:
                offset = 0.0
            X[i, j] = value + offset
    return names, X


class TestRegistryPredictRows:
    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_every_registry_model_overrides_predict_rows(self, key):
        # No registered model may fall back to the per-row loop.
        assert type(build_analytical(key)).predict_rows is not AnalyticalModel.predict_rows

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_full_registry_datasets(self, datasets, key, dataset):
        data = datasets[dataset]
        model = build_analytical(key)
        assert_bit_identical(model.predict_rows(data.X, data.feature_names),
                             per_row(model, data.X, data.feature_names))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), key=st.sampled_from(REGISTRY_KEYS),
           dataset=st.sampled_from(DATASETS), write_allocate=st.booleans(),
           timesteps=st.integers(1, 5))
    def test_rows_drawn_from_registry_datasets(self, datasets, data, key, dataset,
                                               write_allocate, timesteps):
        source = datasets[dataset]
        rows = data.draw(st.lists(st.integers(0, source.n_samples - 1), max_size=30))
        X = source.X[rows]
        model = with_options(key, write_allocate, timesteps)
        assert_bit_identical(model.predict_rows(X, source.feature_names),
                             per_row(model, X, source.feature_names))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), key=st.sampled_from(REGISTRY_KEYS),
           write_allocate=st.booleans(), timesteps=st.integers(1, 5))
    def test_random_in_range_rows(self, data, key, write_allocate, timesteps):
        names, X = data.draw(random_batches(key))
        model = with_options(key, write_allocate, timesteps)
        assert_bit_identical(model.predict_rows(X, names), per_row(model, X, names))

    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_a_repeated_column_counts_by_its_last_occurrence(self, key):
        # The per-row path builds a name -> value dict, so the last wins.
        ranges, invalid = layout(key)
        names = sorted(ranges)
        model = build_analytical(key)
        for name in names:
            X = np.ones((2, len(names) + 1))
            X[:, -1] = [3.0, 7.0]
            assert_bit_identical(model.predict_rows(X, names + [name]),
                                 per_row(model, X, names + [name]))
            X[:, -1] = 1.0
            X[0, names.index(name)] = invalid[name][0]
            assert_bit_identical(model.predict_rows(X, names + [name]),
                                 per_row(model, X, names + [name]))

    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_each_out_of_range_value_raises_on_both_paths(self, key):
        ranges, invalid = layout(key)
        names = sorted(ranges)
        model = build_analytical(key)
        for name, values in invalid.items():
            for value in values:
                X = np.ones((3, len(names)))
                X[1, names.index(name)] = value
                with pytest.raises(ValueError):
                    per_row(model, X, names)
                with pytest.raises(ValueError, match=name):
                    model.predict_rows(X, names)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), key=st.sampled_from(REGISTRY_KEYS))
    def test_out_of_range_rows_raise_on_both_paths(self, data, key):
        _, invalid = layout(key)
        name = data.draw(st.sampled_from(sorted(invalid)))
        names, X = data.draw(random_batches(key, including=name))
        if X.shape[0] == 0:
            X = np.ones((1, len(names)))
        row = data.draw(st.integers(0, X.shape[0] - 1))
        X[row, names.index(name)] = data.draw(st.sampled_from(invalid[name]))
        model = build_analytical(key)
        with pytest.raises(ValueError):
            per_row(model, X, names)
        with pytest.raises(ValueError):
            model.predict_rows(X, names)
