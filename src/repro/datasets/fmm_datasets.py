"""FMM performance datasets (Figures 3B and 8).

The modeling vector is ``X = (t, N, q, k)`` (Section III-B); the full
paper space sweeps ``t = 1..16``, ``N in {4096, 8192, 16384}``,
``k = 2..12`` and a range of particles-per-leaf values.
"""

from __future__ import annotations

from repro.core.features import PerformanceDataset
from repro.fmm.config import FmmConfigSpace
from repro.fmm.perf_sim import FmmPerformanceSimulator

__all__ = ["fmm_dataset_from_space", "fmm_dataset"]


def fmm_dataset_from_space(space: FmmConfigSpace, *, name: str,
                           simulator=None, max_configs: int | None = None,
                           random_state=0) -> PerformanceDataset:
    """Build a dataset from an arbitrary FMM configuration space."""
    simulator = simulator if simulator is not None else FmmPerformanceSimulator()
    configs = space.configs()
    if max_configs is not None and len(configs) > max_configs:
        from repro.utils.rng import check_random_state

        rng = check_random_state(random_state)
        idx = rng.permutation(len(configs))[:max_configs]
        configs = [configs[i] for i in sorted(idx)]
    X = space.to_feature_matrix(configs)
    y = simulator.times(configs)
    return PerformanceDataset(name=name, X=X, y=y,
                              feature_names=list(space.feature_names))


def fmm_dataset(*, simulator=None, max_configs: int | None = None,
                random_state=0) -> PerformanceDataset:
    """Figure 3B / Figure 8 dataset: the full (t, N, q, k) ExaFMM space."""
    return fmm_dataset_from_space(
        FmmConfigSpace.paper_space(),
        name="fmm",
        simulator=simulator,
        max_configs=max_configs,
        random_state=random_state,
    )
