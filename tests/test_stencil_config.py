"""Tests for repro.stencil.config."""

import numpy as np
import pytest

from repro.stencil import config as stencil_config
from repro.stencil.config import StencilConfig, StencilConfigSpace, divisors


class TestDivisors:
    def test_basic(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(16, limit=8) == [1, 2, 4, 8]

    def test_invalid(self):
        with pytest.raises(ValueError):
            divisors(0)


class TestStencilConfig:
    def test_defaults_and_properties(self):
        cfg = StencilConfig(I=64, J=32, K=16)
        assert cfg.shape == (64, 32, 16)
        assert cfg.grid_points == 64 * 32 * 16
        assert cfg.blocks == (64, 32, 16)   # unblocked => full extents
        assert not cfg.is_blocked
        assert cfg.padded_shape() == (66, 34, 18)

    def test_blocking_normalization(self):
        cfg = StencilConfig(I=64, J=64, K=64, bi=16, bj=0, bk=128)
        assert cfg.blocks == (16, 64, 64)   # bk capped at K, bj=0 -> full
        assert cfg.is_blocked

    def test_to_dict_and_feature_values(self):
        cfg = StencilConfig(I=8, J=8, K=8, bi=2, bj=4, bk=8, unroll=2, threads=4)
        values = cfg.feature_values(["I", "bj", "threads"])
        assert values == [8.0, 4.0, 4.0]
        with pytest.raises(KeyError):
            cfg.feature_values(["nonexistent"])

    @pytest.mark.parametrize("kwargs", [
        dict(I=0, J=1, K=1), dict(I=1, J=1, K=1, bi=-1), dict(I=1, J=1, K=1, unroll=9),
        dict(I=1, J=1, K=1, threads=0), dict(I=1, J=1, K=1, stencil_points=5),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            StencilConfig(**kwargs)


class TestStencilConfigSpace:
    def test_paper_space_fig3a_shape(self):
        space = StencilConfigSpace.small_grids_with_blocking()
        configs = space.configs()
        assert len(configs) > 1000
        assert space.feature_names == ["I", "J", "K", "bi", "bj", "bk"]
        # All grids have I = 1 and J, K multiples of 16 up to 128.
        assert all(c.I == 1 for c in configs)
        assert all(c.J % 16 == 0 and 16 <= c.J <= 128 for c in configs)
        # Block sizes divide the extents.
        assert all(c.J % c.bj == 0 and c.K % c.bk == 0 for c in configs)

    def test_paper_space_fig5_shape(self):
        space = StencilConfigSpace.large_grids_no_blocking()
        configs = space.configs()
        assert len(configs) == 9 ** 3
        assert space.feature_names == ["I", "J", "K"]
        assert all(not c.is_blocked for c in configs)

    def test_paper_space_fig7_shape(self):
        space = StencilConfigSpace.threaded_plane_grids()
        configs = space.configs()
        assert len(configs) == 4 * 4 * 8
        assert all(c.K == 1 for c in configs)
        assert {c.threads for c in configs} == set(range(1, 9))

    def test_feature_matrix_shape_and_order(self):
        space = StencilConfigSpace.large_grids_no_blocking()
        X = space.to_feature_matrix()
        assert X.shape == (len(space.configs()), 3)
        first = space.configs()[0]
        np.testing.assert_array_equal(X[0], [first.I, first.J, first.K])

    def test_explicit_blockings(self):
        space = StencilConfigSpace(grid_sizes=[(8, 8, 8)], blockings=[(2, 2, 2), (4, 4, 4)])
        configs = space.configs()
        assert len(configs) == 2
        assert {c.blocks for c in configs} == {(2, 2, 2), (4, 4, 4)}

    def test_unroll_and_threads_dimensions(self):
        space = StencilConfigSpace(grid_sizes=[(8, 8, 8)], unroll_factors=[0, 2],
                                   thread_counts=[1, 4])
        assert len(space) == 4
        assert "unroll" in space.feature_names and "threads" in space.feature_names

    def test_max_block_candidates_cap(self):
        space = StencilConfigSpace(grid_sizes=[(1, 128, 128)], blockings="divisors",
                                   max_block_candidates=4)
        # at most 4 candidates per dimension -> at most 4*4*1 blockings
        assert len(space) <= 16

    def test_configs_constructs_each_configuration_once(self, monkeypatch):
        """``configs()`` walks the space once; ``list(self)`` used to walk
        it twice, the first time for ``__len__``'s size hint."""
        made = []

        def counting(**fields):
            made.append(StencilConfig(**fields))
            return made[-1]

        monkeypatch.setattr(stencil_config, "StencilConfig", counting)
        space = StencilConfigSpace.small_grids_with_blocking()
        configs = space.configs()
        assert len(made) == len(configs) == 3364
        assert len(space) == len(configs)

    def test_invalid_spaces(self):
        with pytest.raises(ValueError):
            StencilConfigSpace(grid_sizes=[])
        with pytest.raises(ValueError):
            StencilConfigSpace(grid_sizes=[(4, 4, 4)], blockings="powers-of-two").configs()
