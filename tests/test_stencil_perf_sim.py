"""Tests for repro.stencil.perf_sim (the Blue Waters stand-in)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import MACHINE_PRESETS, blue_waters_xe6, small_embedded_node
from repro.parallel.scaling import ThreadScalingModel
from repro.stencil.config import StencilConfig, StencilConfigSpace
from repro.stencil.perf_sim import StencilPerformanceSimulator

#: The configuration spaces behind the dataset registry's stencil entries.
REGISTRY_SPACES = {
    "stencil-blocked": StencilConfigSpace.small_grids_with_blocking(),
    "stencil-grid-only": StencilConfigSpace.large_grids_no_blocking(),
    "stencil-threaded": StencilConfigSpace.threaded_plane_grids(),
}


@st.composite
def stencil_configs(draw):
    """Any valid configuration, blocks from 0 (unblocked) up to the extent."""
    I, J, K = (draw(st.integers(1, 300)) for _ in range(3))  # noqa: E741
    return StencilConfig(
        I=I, J=J, K=K, bi=draw(st.integers(0, I)), bj=draw(st.integers(0, J)),
        bk=draw(st.integers(0, K)), unroll=draw(st.integers(0, 8)),
        threads=draw(st.integers(1, 32)), stencil_points=draw(st.sampled_from([7, 27])),
        order=draw(st.integers(1, 3)))


def assert_times_equal_run(sim, configs):
    """``times`` must reproduce the scalar reference ``run`` bit for bit."""
    expected = np.array([sim.run(c).seconds for c in configs], dtype=np.float64)
    np.testing.assert_array_equal(sim.times(configs), expected, strict=True)


@pytest.fixture(scope="module")
def sim():
    return StencilPerformanceSimulator(noise=0.0)


class TestBasicBehaviour:
    def test_time_positive_and_finite(self, sim):
        t = sim.time(StencilConfig(I=64, J=64, K=64))
        assert np.isfinite(t) and t > 0

    def test_deterministic(self):
        sim = StencilPerformanceSimulator(random_state=1)
        cfg = StencilConfig(I=32, J=64, K=48, bi=8, bj=16, bk=48)
        assert sim.time(cfg) == sim.time(cfg)

    def test_noise_changes_with_seed_but_not_structure(self):
        cfg = StencilConfig(I=64, J=64, K=64)
        t1 = StencilPerformanceSimulator(random_state=1).time(cfg)
        t2 = StencilPerformanceSimulator(random_state=2).time(cfg)
        assert t1 != t2
        assert abs(np.log(t1 / t2)) < 0.5  # noise is a few percent, not structural

    def test_times_vectorized_matches_scalar(self, sim):
        configs = [StencilConfig(I=32, J=32, K=32), StencilConfig(I=64, J=32, K=16)]
        np.testing.assert_array_equal(sim.times(configs),
                                      [sim.time(c) for c in configs])

    def test_run_breakdown_consistency(self, sim):
        run = sim.run(StencilConfig(I=96, J=96, K=96))
        assert run.seconds >= run.serial_seconds / 10  # thread=1: equal up to noise
        assert run.memory_seconds > 0 and run.flop_seconds > 0
        assert len(run.traffic_bytes_per_level) == sim.machine.hierarchy.n_levels + 1
        assert run.noise_factor == 1.0  # noise disabled in fixture


class TestPhysicalShape:
    def test_time_grows_with_problem_size(self, sim):
        t1 = sim.time(StencilConfig(I=64, J=64, K=64))
        t2 = sim.time(StencilConfig(I=128, J=128, K=128))
        t3 = sim.time(StencilConfig(I=256, J=256, K=256))
        assert t1 < t2 < t3
        # At least linear in the number of points (8x each step).
        assert t2 / t1 > 6.0
        assert t3 / t2 > 6.0

    def test_memory_bound_regime_for_large_grids(self, sim):
        run = sim.run(StencilConfig(I=256, J=256, K=256))
        assert run.memory_seconds > run.flop_seconds

    def test_per_point_cost_grows_with_cache_pressure(self, sim):
        # Once the working set overflows the caches, every additional
        # doubling of the grid costs more per point (more planes re-fetched
        # from the slower levels).
        mid = sim.run(StencilConfig(I=128, J=128, K=128))
        large = sim.run(StencilConfig(I=256, J=256, K=256))
        assert mid.seconds / 128 ** 3 < large.seconds / 256 ** 3

    def test_tiny_blocks_hurt(self, sim):
        unblocked = sim.time(StencilConfig(I=128, J=128, K=128))
        tiny_blocks = sim.time(StencilConfig(I=128, J=128, K=128, bi=2, bj=2, bk=2))
        assert tiny_blocks > unblocked

    def test_threads_reduce_time_but_sublinearly(self, sim):
        cfg1 = StencilConfig(I=160, J=160, K=1, threads=1)
        cfg8 = StencilConfig(I=160, J=160, K=1, threads=8)
        speedup = sim.time(cfg1) / sim.time(cfg8)
        assert 1.2 < speedup < 8.0

    def test_unrolling_effect_is_moderate(self, sim):
        base = sim.time(StencilConfig(I=64, J=64, K=64, unroll=0))
        unrolled = sim.time(StencilConfig(I=64, J=64, K=64, unroll=4))
        assert 0.8 < unrolled / base < 1.2

    def test_smaller_machine_is_slower(self):
        cfg = StencilConfig(I=128, J=128, K=128)
        bw = StencilPerformanceSimulator(machine=blue_waters_xe6(), noise=0.0).time(cfg)
        small = StencilPerformanceSimulator(machine=small_embedded_node(), noise=0.0).time(cfg)
        assert small > bw


class TestArrayKernel:
    """``times`` (the array kernel) against ``run`` (the scalar reference)."""

    @pytest.mark.parametrize("noise", [0.0, 0.04])
    @pytest.mark.parametrize("preset", sorted(MACHINE_PRESETS))
    @pytest.mark.parametrize("space", sorted(REGISTRY_SPACES))
    def test_registry_spaces_bit_identical(self, space, preset, noise):
        sim = StencilPerformanceSimulator(machine=MACHINE_PRESETS[preset](), noise=noise)
        assert_times_equal_run(sim, REGISTRY_SPACES[space].configs())

    @pytest.mark.parametrize("kwargs", [
        {"timesteps": 3},
        {"scaling": ThreadScalingModel(serial_fraction=0.1, saturation_threads=2.0,
                                       compute_fraction=0.5, cores_per_socket=3,
                                       numa_penalty=1.3, overhead_s=1e-5)},
        {"tile_overhead_cycles": 100, "tlb_entries": 8, "page_bytes": 1024,
         "random_state": 5},
    ], ids=["timesteps", "custom-scaling", "tlb-and-overhead"])
    def test_simulator_options_bit_identical(self, kwargs):
        sim = StencilPerformanceSimulator(**kwargs)
        for space in REGISTRY_SPACES.values():
            assert_times_equal_run(sim, space.configs())

    @settings(max_examples=60, deadline=None)
    @given(configs=st.lists(stencil_configs(), max_size=40),
           preset=st.sampled_from(sorted(MACHINE_PRESETS)),
           noise=st.sampled_from([0.0, 0.04]),
           timesteps=st.integers(1, 3))
    def test_random_configs_bit_identical(self, configs, preset, noise, timesteps):
        sim = StencilPerformanceSimulator(machine=MACHINE_PRESETS[preset](), noise=noise,
                                          timesteps=timesteps)
        assert_times_equal_run(sim, configs)

    def test_empty_and_generator_inputs(self, sim):
        empty = sim.times([])
        assert empty.dtype == np.float64 and empty.shape == (0,)
        configs = StencilConfigSpace.threaded_plane_grids().configs()
        np.testing.assert_array_equal(sim.times(c for c in configs), sim.times(configs))


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StencilPerformanceSimulator(timesteps=0)
        with pytest.raises(ValueError):
            StencilPerformanceSimulator(noise=-0.1)
