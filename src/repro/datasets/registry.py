"""Name-based dataset registry.

Lets examples, experiments and benchmarks refer to the paper's datasets by
short names.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.features import PerformanceDataset
from repro.datasets.fmm_datasets import fmm_dataset
from repro.datasets.stencil_datasets import (
    blocked_small_grid_dataset,
    grid_only_dataset,
    threaded_dataset,
)

__all__ = ["DATASET_REGISTRY", "load_dataset"]

DATASET_REGISTRY: dict[str, Callable[..., PerformanceDataset]] = {
    "stencil-blocked": blocked_small_grid_dataset,
    "stencil-grid-only": grid_only_dataset,
    "stencil-threaded": threaded_dataset,
    "fmm": fmm_dataset,
}


def load_dataset(name: str, **kwargs) -> PerformanceDataset:
    """Build one of the paper's datasets by name.

    ``kwargs`` are forwarded to the generator (e.g. ``max_configs=500`` for
    a quick subsampled version, or a custom ``simulator``).
    """
    try:
        factory = DATASET_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_REGISTRY)}"
        ) from None
    return factory(**kwargs)
