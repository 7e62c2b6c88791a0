"""Tests for repro.fmm.config."""

import pytest

from repro.fmm import config as fmm_config
from repro.fmm.config import FmmConfig, FmmConfigSpace


class TestFmmConfig:
    def test_properties(self):
        cfg = FmmConfig(threads=4, n_particles=16384, particles_per_leaf=64, order=6)
        assert cfg.n_leaf_cells == pytest.approx(256.0)
        assert cfg.tree_depth == 3   # 8^3 = 512 >= 256
        assert cfg.to_dict()["order"] == 6

    def test_tree_depth_single_leaf(self):
        cfg = FmmConfig(threads=1, n_particles=100, particles_per_leaf=200, order=3)
        assert cfg.tree_depth == 0

    def test_feature_values(self):
        cfg = FmmConfig(threads=2, n_particles=4096, particles_per_leaf=32, order=5)
        assert cfg.feature_values(["order", "threads"]) == [5.0, 2.0]
        with pytest.raises(KeyError):
            cfg.feature_values(["bogus"])

    @pytest.mark.parametrize("kwargs", [
        dict(threads=0, n_particles=10, particles_per_leaf=1, order=1),
        dict(threads=1, n_particles=0, particles_per_leaf=1, order=1),
        dict(threads=1, n_particles=10, particles_per_leaf=0, order=1),
        dict(threads=1, n_particles=10, particles_per_leaf=1, order=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FmmConfig(**kwargs)


class TestFmmConfigSpace:
    def test_paper_space_matches_section5(self):
        space = FmmConfigSpace.paper_space()
        configs = space.configs()
        assert {c.threads for c in configs} == set(range(1, 17))
        assert {c.n_particles for c in configs} == {4096, 8192, 16384}
        assert {c.order for c in configs} == set(range(2, 13))
        assert len(configs) == 16 * 3 * 7 * 11

    def test_leaf_size_never_exceeds_particles(self):
        space = FmmConfigSpace(particle_counts=(100,), leaf_sizes=(50, 200),
                               thread_counts=(1,), orders=(2,))
        configs = space.configs()
        assert all(c.particles_per_leaf <= c.n_particles for c in configs)
        assert len(configs) == 1

    def test_feature_matrix(self):
        space = FmmConfigSpace.small_space()
        X = space.to_feature_matrix()
        assert X.shape == (len(space.configs()), 4)
        assert list(space.feature_names) == ["threads", "n_particles",
                                             "particles_per_leaf", "order"]

    def test_configs_constructs_each_configuration_once(self, monkeypatch):
        """``configs()`` walks the space once; ``list(self)`` used to walk
        it twice, the first time for ``__len__``'s size hint."""
        made = []

        def counting(**fields):
            made.append(FmmConfig(**fields))
            return made[-1]

        monkeypatch.setattr(fmm_config, "FmmConfig", counting)
        space = FmmConfigSpace.paper_space()
        configs = space.configs()
        assert len(made) == len(configs) == 16 * 3 * 7 * 11
        assert len(space) == len(configs)

    def test_invalid_space(self):
        with pytest.raises(ValueError):
            FmmConfigSpace(thread_counts=())
