"""Fast-multipole-method substrate (an ExaFMM-like solver).

The paper's second application is ExaFMM (Section II-B / III-B): a fast
multipole method for the 3-D Laplace kernel with Cartesian series
expansions, dual tree traversal, and hybrid MPI/OpenMP parallelism.  The
modeling vector is ``X = (t, N, q, k)`` — threads, particles, particles
per leaf cell, and expansion order.

This package implements the method from scratch:

* :mod:`repro.fmm.particles` — particle sets and distributions,
* :mod:`repro.fmm.octree` — adaptive octree construction,
* :mod:`repro.fmm.expansions` — Cartesian Taylor machinery (multi-index
  tables, kernel-derivative recurrences, translation operators),
* :mod:`repro.fmm.kernels` — the P2M, M2M, M2L, L2L, L2P and P2P kernels,
* :mod:`repro.fmm.traversal` — dual tree traversal plus explicit
  neighbor/well-separated interaction lists,
* :mod:`repro.fmm.solver` — the :class:`Fmm` driver with per-phase
  instrumentation,
* :mod:`repro.fmm.direct` — the O(N^2) direct-summation baseline,
* :mod:`repro.fmm.config` / :mod:`repro.fmm.perf_sim` — the (t, N, q, k)
  configuration space and the per-phase performance simulator that stands
  in for Blue Waters measurements (see ``docs/architecture.md``, layer 3).
"""

from repro.fmm.config import FmmConfig, FmmConfigSpace
from repro.fmm.direct import DirectSummation
from repro.fmm.expansions import CartesianExpansion, MultiIndexSet
from repro.fmm.kernels import (
    l2l,
    l2p,
    laplace_potential,
    m2l,
    m2m,
    p2m,
    p2p,
)
from repro.fmm.octree import Cell, Octree
from repro.fmm.particles import ParticleSet, plummer, random_cube, random_sphere
from repro.fmm.perf_sim import FmmPerformanceSimulator
from repro.fmm.solver import Fmm, FmmResult, PhaseTimings
from repro.fmm.traversal import Interactions, build_interaction_lists, dual_tree_traversal

__all__ = [
    "ParticleSet",
    "random_cube",
    "random_sphere",
    "plummer",
    "Octree",
    "Cell",
    "MultiIndexSet",
    "CartesianExpansion",
    "laplace_potential",
    "p2p",
    "p2m",
    "m2m",
    "m2l",
    "l2l",
    "l2p",
    "dual_tree_traversal",
    "build_interaction_lists",
    "Interactions",
    "Fmm",
    "FmmResult",
    "PhaseTimings",
    "DirectSummation",
    "FmmConfig",
    "FmmConfigSpace",
    "FmmPerformanceSimulator",
]
