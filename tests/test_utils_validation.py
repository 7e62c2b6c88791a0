"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    NotFittedError,
    check_array,
    check_is_fitted,
    check_X_y,
)


class TestCheckArray:
    def test_converts_lists(self):
        arr = check_array([[1, 2], [3, 4]])
        assert arr.dtype == np.float64
        assert arr.shape == (2, 2)

    def test_rejects_1d_when_2d_required(self):
        with pytest.raises(ValueError, match="2-D"):
            check_array([1.0, 2.0, 3.0])

    def test_allows_1d_when_not_required(self):
        arr = check_array([1.0, 2.0], ensure_2d=False)
        assert arr.shape == (2,)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_array([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_array([[np.inf, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_array(np.empty((0, 3)))

    def test_output_is_contiguous(self):
        base = np.asfortranarray(np.ones((4, 3)))
        assert check_array(base).flags["C_CONTIGUOUS"]


class TestCheckXy:
    def test_matching_lengths(self):
        X, y = check_X_y([[1.0], [2.0]], [1.0, 2.0])
        assert X.shape == (2, 1)
        assert y.shape == (2,)

    def test_column_vector_y_is_flattened(self):
        _, y = check_X_y([[1.0], [2.0]], [[1.0], [2.0]])
        assert y.shape == (2,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            check_X_y([[1.0], [2.0]], [1.0])

    def test_nan_target_rejected(self):
        with pytest.raises(ValueError):
            check_X_y([[1.0]], [np.nan])


class TestCheckIsFitted:
    def test_unfitted_raises(self):
        class Dummy:
            attr_ = None

        with pytest.raises(NotFittedError):
            check_is_fitted(Dummy(), "attr_")

    def test_fitted_passes(self):
        class Dummy:
            attr_ = 1.0

        check_is_fitted(Dummy(), ["attr_"])
