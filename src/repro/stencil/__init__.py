"""Stencil-computation substrate (a PATUS-like stencil engine).

The paper's first application is a 7-point 3-D stencil generated by the
PATUS DSL compiler, exposing grid size, loop blocking, loop unrolling and
multi-threading as tuning parameters (Section II-A and III-B).  This
package provides:

* :mod:`repro.stencil.grid` — 3-D grids with ghost layers,
* :mod:`repro.stencil.kernels` — executable 7-point and 27-point stencil
  sweeps (reference NumPy implementation),
* :mod:`repro.stencil.blocking` — spatially blocked traversal,
* :mod:`repro.stencil.config` — the PATUS-style configuration vector
  ``X = (I, J, K, bi, bj, bk, u, t)`` and configuration-space enumeration,
* :mod:`repro.stencil.executor` — runs and times stencil sweeps on the
  host machine,
* :mod:`repro.stencil.perf_sim` — the cache-hierarchy performance
  simulator that stands in for measurements on Blue Waters (see
  ``docs/architecture.md``, layer 3).
"""

from repro.stencil.blocking import block_counts, blocked_sweep, iterate_blocks
from repro.stencil.config import StencilConfig, StencilConfigSpace
from repro.stencil.executor import MeasuredRun, StencilExecutor
from repro.stencil.grid import Grid3D
from repro.stencil.kernels import (
    jacobi_iterate,
    stencil27_sweep,
    stencil7_reference,
    stencil7_sweep,
)
from repro.stencil.perf_sim import StencilPerformanceSimulator

__all__ = [
    "Grid3D",
    "stencil7_reference",
    "stencil7_sweep",
    "stencil27_sweep",
    "jacobi_iterate",
    "blocked_sweep",
    "block_counts",
    "iterate_blocks",
    "StencilConfig",
    "StencilConfigSpace",
    "StencilExecutor",
    "MeasuredRun",
    "StencilPerformanceSimulator",
]
