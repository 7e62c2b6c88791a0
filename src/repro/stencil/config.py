"""PATUS-style stencil configuration vectors and configuration spaces.

Section III-B: "our PATUS modeling vector ``X = (I, J, K, bi, bj, bk, u, t)``
where I, J, and K are the grid dimensions and t is the number of threads";
``bi, bj, bk`` are the loop-blocking sizes and ``u`` the unrolling factor
(0 = no unrolling, up to 8).

The evaluation uses several *subsets* of this vector (Figures 3A, 5, 6, 7);
:class:`StencilConfigSpace` enumerates each of those spaces and converts
configurations to the numeric feature matrices the ML layer consumes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["StencilConfig", "StencilConfigSpace", "divisors"]


def divisors(n: int, *, limit: int | None = None) -> list[int]:
    """All positive divisors of *n* in increasing order (optionally capped)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    divs = [d for d in range(1, n + 1) if n % d == 0]
    if limit is not None:
        divs = [d for d in divs if d <= limit]
    return divs


@dataclass(frozen=True)
class StencilConfig:
    """One point of the PATUS tuning space.

    Attributes mirror the paper's modeling vector.  Block sizes of ``0``
    are normalized to "no blocking in that dimension" (block = extent).
    """

    I: int  # noqa: E741 — paper notation
    J: int
    K: int
    bi: int = 0
    bj: int = 0
    bk: int = 0
    unroll: int = 0
    threads: int = 1
    stencil_points: int = 7
    order: int = 1

    def __post_init__(self) -> None:
        for name in ("I", "J", "K"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("bi", "bj", "bk"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0 <= self.unroll <= 8:
            raise ValueError(f"unroll must be in [0, 8], got {self.unroll}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.stencil_points not in (7, 27):
            raise ValueError(f"stencil_points must be 7 or 27, got {self.stencil_points}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int, int]:
        """Interior grid extents ``(I, J, K)``."""
        return (self.I, self.J, self.K)

    @property
    def grid_points(self) -> int:
        """Total interior points ``N = I * J * K``."""
        return self.I * self.J * self.K

    @property
    def blocks(self) -> tuple[int, int, int]:
        """Effective tile sizes ``(TI, TJ, TK)`` (0 means un-blocked => full extent)."""
        ti = self.bi if self.bi else self.I
        tj = self.bj if self.bj else self.J
        tk = self.bk if self.bk else self.K
        return (min(ti, self.I), min(tj, self.J), min(tk, self.K))

    @property
    def is_blocked(self) -> bool:
        """Whether any dimension is tiled smaller than its extent."""
        return self.blocks != self.shape

    def padded_shape(self) -> tuple[int, int, int]:
        """Extents including ghost layers ``(II, JJ, KK)``."""
        g = 2 * self.order
        return (self.I + g, self.J + g, self.K + g)

    def to_dict(self) -> dict:
        """Plain-dict view of the configuration."""
        return {
            "I": self.I, "J": self.J, "K": self.K,
            "bi": self.bi, "bj": self.bj, "bk": self.bk,
            "unroll": self.unroll, "threads": self.threads,
            "stencil_points": self.stencil_points, "order": self.order,
        }

    def feature_values(self, feature_names: Sequence[str]) -> list[float]:
        """Extract the numeric values of *feature_names* in order."""
        mapping = self.to_dict()
        try:
            return [float(mapping[name]) for name in feature_names]
        except KeyError as exc:
            raise KeyError(
                f"unknown stencil feature {exc.args[0]!r}; available: {sorted(mapping)}"
            ) from None


@dataclass
class StencilConfigSpace:
    """An enumerable set of :class:`StencilConfig` points.

    Parameters
    ----------
    grid_sizes:
        Iterable of ``(I, J, K)`` extents.
    blockings:
        Either ``None`` (no blocking dimension in the space),
        ``"divisors"`` (all divisor tiles of each extent), or an explicit
        iterable of ``(bi, bj, bk)`` tuples applied to every grid size.
    unroll_factors:
        Unrolling factors to sweep (default: just 0).
    thread_counts:
        Thread counts to sweep (default: just 1).
    feature_names:
        Names (subset of the modeling vector) exported to feature matrices;
        defaults to exactly the dimensions that vary in this space.
    """

    grid_sizes: Sequence[tuple[int, int, int]]
    blockings: object = None
    unroll_factors: Sequence[int] = (0,)
    thread_counts: Sequence[int] = (1,)
    feature_names: Sequence[str] | None = None
    max_block_candidates: int = 8

    def __post_init__(self) -> None:
        self.grid_sizes = [tuple(int(v) for v in g) for g in self.grid_sizes]
        if not self.grid_sizes:
            raise ValueError("grid_sizes must be non-empty")
        self.unroll_factors = list(self.unroll_factors)
        self.thread_counts = list(self.thread_counts)
        if self.feature_names is None:
            self.feature_names = self._default_feature_names()
        else:
            self.feature_names = list(self.feature_names)

    # ------------------------------------------------------------------ #
    def _default_feature_names(self) -> list[str]:
        names = ["I", "J", "K"]
        if self.blockings is not None:
            names += ["bi", "bj", "bk"]
        if len(self.unroll_factors) > 1:
            names.append("unroll")
        if len(self.thread_counts) > 1:
            names.append("threads")
        return names

    def _blockings_for(self, shape: tuple[int, int, int]) -> Iterator[tuple[int, int, int]]:
        if self.blockings is None:
            yield (0, 0, 0)
            return
        if isinstance(self.blockings, str):
            if self.blockings != "divisors":
                raise ValueError(
                    f"blockings must be None, 'divisors' or an iterable, got {self.blockings!r}"
                )
            cand = []
            for extent in shape:
                divs = divisors(extent)
                if len(divs) > self.max_block_candidates:
                    # Keep a spread of small/medium/large tiles.
                    idx = np.linspace(0, len(divs) - 1, self.max_block_candidates)
                    divs = [divs[int(round(i))] for i in idx]
                cand.append(divs)
            yield from itertools.product(*cand)
            return
        yield from (tuple(int(v) for v in b) for b in self.blockings)

    def __iter__(self) -> Iterator[StencilConfig]:
        for shape in self.grid_sizes:
            for blocks in self._blockings_for(shape):
                for u in self.unroll_factors:
                    for t in self.thread_counts:
                        yield StencilConfig(
                            I=shape[0], J=shape[1], K=shape[2],
                            bi=blocks[0], bj=blocks[1], bk=blocks[2],
                            unroll=u, threads=t,
                        )

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def configs(self) -> list[StencilConfig]:
        """Materialize the full configuration list in one pass.

        ``list(self)`` would first ask ``__len__`` for a size hint, and
        that walks the whole space once more.
        """
        return list(iter(self))

    def to_feature_matrix(self, configs: Iterable[StencilConfig] | None = None) -> np.ndarray:
        """Convert configurations to a numeric feature matrix.

        The column order is ``self.feature_names``.
        """
        configs = self.configs() if configs is None else list(configs)
        return np.array(
            [cfg.feature_values(self.feature_names) for cfg in configs],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------ #
    # Named spaces from the paper's evaluation
    # ------------------------------------------------------------------ #
    @classmethod
    def small_grids_with_blocking(cls) -> StencilConfigSpace:
        """Figure 3A / Figure 6 space: ``1 x 16x16 .. 1 x 128x128`` stride 16, all blockings."""
        grids = [(1, j, k) for j in range(16, 129, 16) for k in range(16, 129, 16)]
        return cls(grid_sizes=grids, blockings="divisors",
                   feature_names=["I", "J", "K", "bi", "bj", "bk"])

    @classmethod
    def large_grids_no_blocking(cls) -> StencilConfigSpace:
        """Figure 5 space: ``128^3 .. 256^3`` stride 16, grid size only."""
        sizes = range(128, 257, 16)
        grids = [(i, j, k) for i in sizes for j in sizes for k in sizes]
        return cls(grid_sizes=grids, blockings=None, feature_names=["I", "J", "K"])

    @classmethod
    def threaded_plane_grids(cls, *, max_threads: int = 8) -> StencilConfigSpace:
        """Figure 7 space: ``128x128x1 .. 176x176x1`` stride 16, 1..8 threads."""
        sizes = range(128, 177, 16)
        grids = [(i, j, 1) for i in sizes for j in sizes]
        return cls(grid_sizes=grids, blockings=None,
                   thread_counts=list(range(1, max_threads + 1)),
                   feature_names=["I", "J", "K", "threads"])
