"""Tests for repro.parallel.scaling."""

import pytest

from repro.parallel.scaling import (
    ThreadScalingModel,
    amdahl_speedup,
    bandwidth_saturation_speedup,
)


class TestAmdahl:
    def test_single_thread_is_one(self):
        assert amdahl_speedup(1, 0.1) == pytest.approx(1.0)

    def test_perfectly_parallel(self):
        assert amdahl_speedup(8, 0.0) == pytest.approx(8.0)

    def test_fully_serial(self):
        assert amdahl_speedup(16, 1.0) == pytest.approx(1.0)

    def test_upper_bound(self):
        # Speedup never exceeds 1 / serial_fraction.
        assert amdahl_speedup(10000, 0.1) < 10.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            amdahl_speedup(0, 0.1)
        with pytest.raises(ValueError):
            amdahl_speedup(4, 1.5)


class TestBandwidthSaturation:
    def test_monotone_and_bounded(self):
        speedups = [bandwidth_saturation_speedup(t, 4.0) for t in range(1, 17)]
        assert all(b >= a - 1e-12 for a, b in zip(speedups, speedups[1:], strict=False))
        assert speedups[-1] <= 4.0 + 1e-9

    def test_linear_regime(self):
        # Far below saturation the speedup is close to the thread count.
        assert bandwidth_saturation_speedup(1, 64.0) == pytest.approx(1.0, rel=0.05)
        assert bandwidth_saturation_speedup(2, 64.0) == pytest.approx(2.0, rel=0.05)

    def test_invalid(self):
        with pytest.raises(ValueError):
            bandwidth_saturation_speedup(0, 4.0)
        with pytest.raises(ValueError):
            bandwidth_saturation_speedup(4, 0.0)


class TestThreadScalingModel:
    def test_single_thread_time_preserved_up_to_overhead(self):
        model = ThreadScalingModel(overhead_s=0.0)
        assert model.time(1.0, 1) == pytest.approx(1.0, rel=1e-6)

    def test_time_decreases_then_saturates(self):
        model = ThreadScalingModel(serial_fraction=0.05, saturation_threads=4.0,
                                   compute_fraction=0.3, overhead_s=0.0,
                                   cores_per_socket=8, numa_penalty=1.0)
        times = [model.time(1.0, t) for t in (1, 2, 4, 8)]
        assert times[1] < times[0]
        assert times[2] < times[1]
        # Speedup is bounded well below linear at 8 threads.
        assert times[0] / times[3] < 8.0

    def test_numa_penalty_applies_beyond_socket(self):
        base = ThreadScalingModel(numa_penalty=1.0, cores_per_socket=4, overhead_s=0.0)
        numa = ThreadScalingModel(numa_penalty=1.5, cores_per_socket=4, overhead_s=0.0)
        assert numa.time(1.0, 8) > base.time(1.0, 8)
        assert numa.time(1.0, 4) == pytest.approx(base.time(1.0, 4))

    def test_overhead_grows_with_threads(self):
        model = ThreadScalingModel(overhead_s=1e-3, serial_fraction=0.0,
                                   compute_fraction=1.0, saturation_threads=1e9,
                                   numa_penalty=1.0)
        # Tiny kernel: overhead dominates, so more threads means more time.
        assert model.time(1e-6, 8) > model.time(1e-6, 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ThreadScalingModel(serial_fraction=1.5)
        with pytest.raises(ValueError):
            ThreadScalingModel(numa_penalty=0.5)
        with pytest.raises(ValueError):
            ThreadScalingModel(saturation_threads=0.0)
        with pytest.raises(ValueError):
            ThreadScalingModel().time(-1.0, 2)
        with pytest.raises(ValueError):
            ThreadScalingModel().speedup(0)
