"""FMM configuration vectors and the (t, N, q, k) configuration space.

Section III-B / V: "Our ExaFMM modeling vector ``X = (t, N, q, k)`` where
``t`` is the number of threads, ``N`` is the total number of particles,
``q`` is the number of particles per leaf cell, and ``k`` is the order of
expansion", with ``t = 1..16``, ``N in {4096, 8192, 16384}`` and
``k = 2..12`` in the evaluation.  The paper does not list the swept values
of ``q``; we default to powers of two from 8 to 512, which brackets the
crossover between P2P-dominated (large ``q``) and M2L-dominated (small
``q``) executions.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["FmmConfig", "FmmConfigSpace"]


@dataclass(frozen=True)
class FmmConfig:
    """One point of the ExaFMM tuning space."""

    threads: int
    n_particles: int
    particles_per_leaf: int
    order: int

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.particles_per_leaf < 1:
            raise ValueError(
                f"particles_per_leaf must be >= 1, got {self.particles_per_leaf}"
            )
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")

    # ------------------------------------------------------------------ #
    @property
    def n_leaf_cells(self) -> float:
        """Approximate number of leaf cells ``N / q`` (full-tree assumption)."""
        return self.n_particles / self.particles_per_leaf

    @property
    def tree_depth(self) -> int:
        """Depth of the (full) octree needed to reach ``q`` particles per leaf."""
        leaves_needed = max(1.0, self.n_leaf_cells)
        return int(np.ceil(np.log(leaves_needed) / np.log(8.0))) if leaves_needed > 1 else 0

    def to_dict(self) -> dict:
        """Plain-dict view of the configuration."""
        return {
            "threads": self.threads,
            "n_particles": self.n_particles,
            "particles_per_leaf": self.particles_per_leaf,
            "order": self.order,
        }

    def feature_values(self, feature_names: Sequence[str]) -> list[float]:
        """Extract numeric values of *feature_names* in order."""
        mapping = self.to_dict()
        try:
            return [float(mapping[name]) for name in feature_names]
        except KeyError as exc:
            raise KeyError(
                f"unknown FMM feature {exc.args[0]!r}; available: {sorted(mapping)}"
            ) from None


@dataclass
class FmmConfigSpace:
    """Cartesian product of thread counts, problem sizes, leaf sizes and orders."""

    thread_counts: Sequence[int] = tuple(range(1, 17))
    particle_counts: Sequence[int] = (4096, 8192, 16384)
    leaf_sizes: Sequence[int] = (8, 16, 32, 64, 128, 256, 512)
    orders: Sequence[int] = tuple(range(2, 13))
    feature_names: Sequence[str] = ("threads", "n_particles", "particles_per_leaf", "order")

    def __post_init__(self) -> None:
        self.thread_counts = [int(v) for v in self.thread_counts]
        self.particle_counts = [int(v) for v in self.particle_counts]
        self.leaf_sizes = [int(v) for v in self.leaf_sizes]
        self.orders = [int(v) for v in self.orders]
        self.feature_names = list(self.feature_names)
        for name, values in (
            ("thread_counts", self.thread_counts),
            ("particle_counts", self.particle_counts),
            ("leaf_sizes", self.leaf_sizes),
            ("orders", self.orders),
        ):
            if not values:
                raise ValueError(f"{name} must be non-empty")

    def __iter__(self) -> Iterator[FmmConfig]:
        for t, n, q, k in itertools.product(
            self.thread_counts, self.particle_counts, self.leaf_sizes, self.orders
        ):
            if q > n:
                continue
            yield FmmConfig(threads=t, n_particles=n, particles_per_leaf=q, order=k)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def configs(self) -> list[FmmConfig]:
        """Materialize the full configuration list in one pass.

        ``list(self)`` would first ask ``__len__`` for a size hint, and
        that walks the whole space once more.
        """
        return list(iter(self))

    def to_feature_matrix(self, configs=None) -> np.ndarray:
        """Convert configurations to a numeric feature matrix (column order = feature_names)."""
        configs = self.configs() if configs is None else list(configs)
        return np.array(
            [cfg.feature_values(self.feature_names) for cfg in configs], dtype=np.float64
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def paper_space(cls) -> FmmConfigSpace:
        """The Figure 3B / Figure 8 space: t=1..16, N in {4096, 8192, 16384}, k=2..12."""
        return cls()

    @classmethod
    def small_space(cls) -> FmmConfigSpace:
        """A reduced space for tests and quick examples."""
        return cls(thread_counts=(1, 2, 4), particle_counts=(1024, 2048),
                   leaf_sizes=(16, 64), orders=(2, 4, 6))
