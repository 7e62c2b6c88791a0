"""Parallelism substrate.

The paper's feature vectors include the number of OpenMP threads ``t``;
its analytical models, however, are single-core models (Section VII-A,
Fig. 7 explicitly exploits this).  This package provides:

* :mod:`repro.parallel.scaling` -- analytic thread-scaling laws
  (Amdahl's law, bandwidth-saturation scaling, NUMA penalties) that the
  performance simulators use to turn a single-core time into a
  multi-threaded time,
* :mod:`repro.parallel.threadpool` -- a thread-pool map and index
  chunking used by the executable FMM engines and the worker pool.
"""

from repro.parallel.scaling import (
    ThreadScalingModel,
    amdahl_speedup,
    bandwidth_saturation_speedup,
)
from repro.parallel.threadpool import chunk_indices, parallel_map

__all__ = [
    "amdahl_speedup",
    "bandwidth_saturation_speedup",
    "ThreadScalingModel",
    "parallel_map",
    "chunk_indices",
]
