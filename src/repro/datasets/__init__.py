"""Dataset generators for every experiment in the paper's evaluation.

Each generator enumerates the configuration space of one figure, obtains
"measured" execution times from the corresponding performance simulator
(the Blue Waters stand-in, see ``docs/architecture.md``, layer 3) and
packages the result as a :class:`~repro.core.features.PerformanceDataset`.

| Generator                      | Paper figure(s) | Modeling vector              |
|--------------------------------|-----------------|------------------------------|
| ``blocked_small_grid_dataset`` | Fig. 3A, Fig. 6 | (I, J, K, bi, bj, bk)        |
| ``grid_only_dataset``          | Fig. 5          | (I, J, K)                    |
| ``threaded_dataset``           | Fig. 7          | (I, J, K, t)                 |
| ``fmm_dataset``                | Fig. 3B, Fig. 8 | (t, N, q, k)                 |

:mod:`repro.datasets.store` adds a fingerprint-keyed persistent layer on
top: :class:`DatasetSpec` names a dataset recipe, :class:`DatasetStore`
memoizes the generated arrays (and warmed analytical-prediction caches)
to disk so they are built at most once per machine.
"""

from repro.datasets.backends import (
    LocalBackend,
    MemoryBackend,
    ObjectStoreBackend,
    StoreBackend,
    resolve_backend,
)
from repro.datasets.fmm_datasets import fmm_dataset, fmm_dataset_from_space
from repro.datasets.registry import DATASET_REGISTRY, load_dataset
from repro.datasets.sampling import latin_hypercube_indices, uniform_sample_indices
from repro.datasets.stencil_datasets import (
    blocked_small_grid_dataset,
    grid_only_dataset,
    stencil_dataset_from_space,
    threaded_dataset,
)
from repro.datasets.store import DatasetSpec, DatasetStore

__all__ = [
    "DatasetSpec",
    "DatasetStore",
    "StoreBackend",
    "LocalBackend",
    "MemoryBackend",
    "ObjectStoreBackend",
    "resolve_backend",
    "uniform_sample_indices",
    "latin_hypercube_indices",
    "blocked_small_grid_dataset",
    "grid_only_dataset",
    "threaded_dataset",
    "stencil_dataset_from_space",
    "fmm_dataset",
    "fmm_dataset_from_space",
    "DATASET_REGISTRY",
    "load_dataset",
]
