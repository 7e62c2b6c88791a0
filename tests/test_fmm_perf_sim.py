"""Tests for repro.fmm.perf_sim."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmm.config import FmmConfig, FmmConfigSpace
from repro.fmm.perf_sim import FmmPerformanceSimulator
from repro.machine import MACHINE_PRESETS, small_embedded_node

#: The registry's FMM space plus the reduced space the examples use.
SPACES = {"fmm": FmmConfigSpace.paper_space(), "fmm-small": FmmConfigSpace.small_space()}

fmm_configs = st.builds(FmmConfig, threads=st.integers(1, 32),
                        n_particles=st.integers(1, 2_000_000),
                        particles_per_leaf=st.integers(1, 5_000_000),
                        order=st.integers(1, 15))


def assert_times_equal_run(sim, configs):
    """``times`` must reproduce the scalar reference ``run`` bit for bit."""
    expected = np.array([sim.run(c).seconds for c in configs], dtype=np.float64)
    np.testing.assert_array_equal(sim.times(configs), expected, strict=True)


@pytest.fixture(scope="module")
def sim():
    return FmmPerformanceSimulator(noise=0.0)


class TestBasics:
    def test_positive_finite_times(self, sim):
        t = sim.time(FmmConfig(threads=1, n_particles=8192, particles_per_leaf=64, order=6))
        assert np.isfinite(t) and t > 0

    def test_deterministic(self):
        sim = FmmPerformanceSimulator(random_state=3)
        cfg = FmmConfig(threads=4, n_particles=4096, particles_per_leaf=32, order=5)
        assert sim.time(cfg) == sim.time(cfg)

    def test_phase_breakdown_sums_to_total(self, sim):
        run = sim.run(FmmConfig(threads=2, n_particles=8192, particles_per_leaf=64, order=6))
        np.testing.assert_array_equal(
            run.seconds, sum(run.phase_seconds.values()) * run.noise_factor)
        assert set(run.phase_seconds) == {"tree", "traversal", "p2m", "m2m",
                                          "m2l", "l2l", "l2p", "p2p"}

    def test_times_vectorized(self, sim):
        configs = [FmmConfig(threads=1, n_particles=4096, particles_per_leaf=64, order=4),
                   FmmConfig(threads=8, n_particles=4096, particles_per_leaf=64, order=4)]
        times = sim.times(configs)
        assert times.shape == (2,)
        assert times[1] < times[0]


class TestArrayKernel:
    """``times`` (the array kernel) against ``run`` (the scalar reference)."""

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("preset", sorted(MACHINE_PRESETS))
    @pytest.mark.parametrize("space", sorted(SPACES))
    def test_spaces_bit_identical(self, space, preset, noise):
        sim = FmmPerformanceSimulator(machine=MACHINE_PRESETS[preset](), noise=noise)
        assert_times_equal_run(sim, SPACES[space].configs())

    def test_simulator_options_bit_identical(self):
        sim = FmmPerformanceSimulator(flops_per_p2p_interaction=20.0,
                                      flops_per_m2l_coeff_pair=12.0, simd_width=8,
                                      random_state=3)
        assert_times_equal_run(sim, SPACES["fmm"].configs())

    @settings(max_examples=60, deadline=None)
    @given(configs=st.lists(fmm_configs, max_size=40),
           preset=st.sampled_from(sorted(MACHINE_PRESETS)),
           noise=st.sampled_from([0.0, 0.05]))
    def test_random_configs_bit_identical(self, configs, preset, noise):
        sim = FmmPerformanceSimulator(machine=MACHINE_PRESETS[preset](), noise=noise)
        assert_times_equal_run(sim, configs)

    def test_empty_and_generator_inputs(self, sim):
        empty = sim.times([])
        assert empty.dtype == np.float64 and empty.shape == (0,)
        configs = SPACES["fmm-small"].configs()
        np.testing.assert_array_equal(sim.times(c for c in configs), sim.times(configs))


class TestPhysicalShape:
    def test_m2l_dominates_small_leaves_p2p_dominates_large(self, sim):
        small_q = sim.run(FmmConfig(threads=1, n_particles=16384, particles_per_leaf=8, order=8))
        large_q = sim.run(FmmConfig(threads=1, n_particles=16384, particles_per_leaf=512, order=4))
        assert small_q.dominant_phase == "m2l"
        assert large_q.dominant_phase == "p2p"

    def test_time_grows_strongly_with_order(self, sim):
        times = [sim.time(FmmConfig(threads=1, n_particles=8192, particles_per_leaf=64, order=k))
                 for k in (2, 6, 12)]
        assert times[0] < times[1] < times[2]
        assert times[2] / times[0] > 20.0

    def test_time_roughly_linear_in_n(self, sim):
        t1 = sim.time(FmmConfig(threads=1, n_particles=4096, particles_per_leaf=64, order=6))
        t2 = sim.time(FmmConfig(threads=1, n_particles=16384, particles_per_leaf=64, order=6))
        ratio = t2 / t1
        assert 2.0 < ratio < 10.0   # N grows 4x; FMM is O(N) up to tree effects

    def test_optimal_leaf_size_is_interior(self, sim):
        # At moderate expansion order the M2L cost (shrinking with q) and the
        # P2P cost (growing with q) cross, so time-vs-q dips in the interior.
        qs = [8, 32, 128, 512]
        times = [sim.time(FmmConfig(threads=1, n_particles=16384, particles_per_leaf=q, order=3))
                 for q in qs]
        best = int(np.argmin(times))
        assert best not in (0, len(qs) - 1)

    def test_thread_scaling_sublinear(self, sim):
        t1 = sim.time(FmmConfig(threads=1, n_particles=16384, particles_per_leaf=64, order=8))
        t16 = sim.time(FmmConfig(threads=16, n_particles=16384, particles_per_leaf=64, order=8))
        speedup = t1 / t16
        assert 1.5 < speedup < 16.0

    def test_slower_machine_is_slower(self):
        cfg = FmmConfig(threads=1, n_particles=8192, particles_per_leaf=64, order=6)
        fast = FmmPerformanceSimulator(noise=0.0).time(cfg)
        slow = FmmPerformanceSimulator(machine=small_embedded_node(), noise=0.0).time(cfg)
        assert slow > fast

    def test_noise_magnitude_bounded(self):
        cfg = FmmConfig(threads=1, n_particles=8192, particles_per_leaf=64, order=6)
        noisy = FmmPerformanceSimulator(noise=0.05, random_state=0).time(cfg)
        clean = FmmPerformanceSimulator(noise=0.0).time(cfg)
        assert abs(np.log(noisy / clean)) < 0.2

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            FmmPerformanceSimulator(noise=-0.1)
