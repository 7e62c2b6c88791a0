"""Stencil performance datasets (Figures 3A, 5, 6 and 7).

Each generator pairs a named :class:`~repro.stencil.config.StencilConfigSpace`
from the paper with the :class:`~repro.stencil.perf_sim.StencilPerformanceSimulator`
(or any object exposing ``times(configs)``, e.g. the real
:class:`~repro.stencil.executor.StencilExecutor` for laptop-scale spaces).
"""

from __future__ import annotations

from repro.core.features import PerformanceDataset
from repro.stencil.config import StencilConfigSpace
from repro.stencil.perf_sim import StencilPerformanceSimulator

__all__ = [
    "stencil_dataset_from_space",
    "blocked_small_grid_dataset",
    "grid_only_dataset",
    "threaded_dataset",
]


def stencil_dataset_from_space(space: StencilConfigSpace, *, name: str,
                               simulator=None, max_configs: int | None = None,
                               random_state=0) -> PerformanceDataset:
    """Build a dataset from an arbitrary stencil configuration space.

    Parameters
    ----------
    space:
        The configuration space to enumerate.
    name:
        Dataset name.
    simulator:
        Object with a ``times(configs)`` method; defaults to a
        :class:`StencilPerformanceSimulator` on the Blue Waters node.
    max_configs:
        Optional uniform subsample of the space (keeps tests fast).
    random_state:
        Seed for the optional subsample.
    """
    simulator = simulator if simulator is not None else StencilPerformanceSimulator()
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


def blocked_small_grid_dataset(*, simulator=None, max_configs: int | None = None,
                               random_state=0) -> PerformanceDataset:
    """Figure 3A / Figure 6 dataset: small plane grids with loop blocking.

    ``X = (I, J, K, bi, bj, bk)`` with ``I x J x K = 1x16x16 .. 1x128x128``
    (stride 16) and blocking from ``1x1x1`` up to the full extent.
    """
    return stencil_dataset_from_space(
        StencilConfigSpace.small_grids_with_blocking(),
        name="stencil-blocked",
        simulator=simulator,
        max_configs=max_configs,
        random_state=random_state,
    )


def grid_only_dataset(*, simulator=None, max_configs: int | None = None,
                      random_state=0) -> PerformanceDataset:
    """Figure 5 dataset: large cubic grids, no blocking.

    ``X = (I, J, K)`` with ``128^3 .. 256^3`` (stride 16).
    """
    return stencil_dataset_from_space(
        StencilConfigSpace.large_grids_no_blocking(),
        name="stencil-grid-only",
        simulator=simulator,
        max_configs=max_configs,
        random_state=random_state,
    )


def threaded_dataset(*, simulator=None, max_threads: int = 8,
                     max_configs: int | None = None,
                     random_state=0) -> PerformanceDataset:
    """Figure 7 dataset: plane grids with multi-threading.

    ``X = (I, J, K, t)`` with ``128x128x1 .. 176x176x1`` (stride 16) and
    ``t = 1 .. 8`` threads.
    """
    return stencil_dataset_from_space(
        StencilConfigSpace.threaded_plane_grids(max_threads=max_threads),
        name="stencil-threaded",
        simulator=simulator,
        max_configs=max_configs,
        random_state=random_state,
    )
