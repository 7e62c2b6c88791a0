"""Tests for repro.core.features (PerformanceDataset)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.features import PerformanceDataset


def _dataset(n=50, d=3, name="toy"):
    rng = np.random.default_rng(0)
    X = rng.random((n, d))
    y = rng.uniform(0.1, 1.0, n)
    return PerformanceDataset(name=name, X=X, y=y, feature_names=[f"f{i}" for i in range(d)])


class TestConstruction:
    def test_basic_properties(self):
        data = _dataset()
        assert data.n_samples == 50
        assert data.n_features == 3
        assert "toy" in data.describe()

    def test_subset_carries_every_field(self):
        """A dataset is its name, X, y and feature names; a subset keeps
        all four."""
        assert [f.name for f in fields(PerformanceDataset)] == [
            "name", "X", "y", "feature_names"]
        data = PerformanceDataset(name="x", X=[[1.0], [2.0]], y=[3.0, 4.0],
                                  feature_names=["a"])
        sub = data.subset(np.array([1]))
        assert (sub.name, sub.feature_names) == ("x", ["a"])
        assert sub.X.tolist() == [[2.0]] and sub.y.tolist() == [4.0]

    @pytest.mark.parametrize("kwargs", [
        dict(X=np.ones(5), y=np.ones(5), feature_names=["a"]),
        dict(X=np.ones((5, 2)), y=np.ones(4), feature_names=["a", "b"]),
        dict(X=np.ones((5, 2)), y=np.ones(5), feature_names=["a"]),
        dict(X=np.ones((5, 2)), y=np.ones((5, 1)), feature_names=["a", "b"]),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PerformanceDataset(name="bad", **kwargs)


class TestSplitting:
    def test_fraction_split(self):
        data = _dataset(n=100)
        train, test = data.train_test_indices(train_fraction=0.2, random_state=0)
        assert len(train) == 20
        assert len(test) == 80
        assert set(train).isdisjoint(test)
        assert len(set(train) | set(test)) == 100

    def test_size_split(self):
        data = _dataset(n=40)
        train, test = data.train_test_indices(train_size=10, random_state=0)
        assert len(train) == 10 and len(test) == 30

    def test_min_train_enforced(self):
        data = _dataset(n=100)
        train, _ = data.train_test_indices(train_fraction=0.01, min_train=5, random_state=0)
        assert len(train) == 5

    def test_never_empty_test_set(self):
        data = _dataset(n=10)
        train, test = data.train_test_indices(train_size=10, random_state=0)
        assert len(test) >= 1

    def test_deterministic(self):
        data = _dataset(n=60)
        a, _ = data.train_test_indices(train_fraction=0.1, random_state=7)
        b, _ = data.train_test_indices(train_fraction=0.1, random_state=7)
        np.testing.assert_array_equal(a, b)

    def test_exactly_one_size_argument(self):
        data = _dataset()
        with pytest.raises(ValueError):
            data.train_test_indices()
        with pytest.raises(ValueError):
            data.train_test_indices(train_fraction=0.1, train_size=5)

    def test_invalid_fraction(self):
        data = _dataset()
        with pytest.raises(ValueError):
            data.train_test_indices(train_fraction=1.5)

    def test_subset(self):
        data = _dataset(n=20)
        sub = data.subset(np.arange(5))
        assert sub.n_samples == 5
        np.testing.assert_array_equal(sub.X, data.X[:5])
