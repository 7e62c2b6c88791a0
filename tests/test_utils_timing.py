"""Tests for repro.utils.timing."""

import pytest

from repro.utils.timing import timeit_median


class TestTimeitMedian:
    def test_returns_positive_time(self):
        assert timeit_median(lambda: sum(range(1000)), repeats=3) > 0.0

    def test_kwargs_forwarded(self):
        calls = []
        timeit_median(lambda x: calls.append(x), repeats=2, x=5)
        assert calls == [5, 5]

    def test_single_repeat(self):
        assert timeit_median(lambda: None, repeats=1) >= 0.0

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            timeit_median(lambda: None, repeats=0)
