"""Analytical model for 3-D stencil computations (Section IV-A).

The model follows de la Cruz & Araya-Polo's multi-level cache model as
presented in the paper:

* stencils are memory bound, so the flop cost is assumed to be hidden by
  memory transfers (Section IV-A, first paragraph);
* the time is the sum over cache levels plus main memory of
  ``T_Li = T_data_Li * Hits_Li`` (Eq. 5–6), where
  ``Hits_Li = Misses_L(i-1) - Misses_Li``;
* misses per level follow ``Misses_Li = ceil(II/W) * JJ * KK * nplanes_Li``
  (Eq. 7) with the ``nplanes`` case analysis driven by conditions R1–R4,
  smoothed by linear interpolation between the case boundaries;
* loop blocking (Section VII-A) is incorporated by re-mapping
  ``I, J, K -> TI, TJ, TK`` (and the extended dimensions) and multiplying
  by the number of tiles ``NB`` (Eq. 15).

The model is intentionally a *single-core* model: it does not see the
``threads`` feature at all, which is what the paper exploits in the
Figure 7 experiment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.analytical.base import AnalyticalModel
from repro.machine import MachineSpec, blue_waters_xe6
from repro.stencil.blocking import block_counts
from repro.stencil.config import StencilConfig

__all__ = ["StencilAnalyticalModel"]

#: The modeling-vector columns a feature row may carry, in the order
#: :class:`StencilConfig` validates them, with the value each takes when
#: its column is absent and the range each must round into.
_COLUMNS = ("I", "J", "K", "bi", "bj", "bk", "unroll", "threads")
_DEFAULTS = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
_LOWEST = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])[:, None]
_HIGHEST = np.array([np.inf] * 6 + [8.0, np.inf])[:, None]


def _stencil_columns(X: np.ndarray, feature_names) -> np.ndarray:
    """The ``(8, n)`` block of :data:`_COLUMNS`, rounded and range-checked.

    Rounds as ``config_from_features`` does (``np.rint`` is Python's
    half-to-even ``round``), fills an absent column with its default and
    raises :class:`StencilConfig`'s ``ValueError`` for the first column,
    in validation order, that holds a value out of range.
    """
    index = {name: i for i, name in enumerate(feature_names)}
    present = [k for k, name in enumerate(_COLUMNS) if name in index]
    V = np.repeat(_DEFAULTS[:, None], X.shape[0], axis=1)
    V[present] = np.rint(X[:, [index[_COLUMNS[k]] for k in present]].T)
    bad = ~((V >= _LOWEST) & (V <= _HIGHEST))
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        name, value = _COLUMNS[k], V[k][bad[k]][0]
        if name == "unroll":
            raise ValueError(f"unroll must be in [0, 8], got {value:g}")
        raise ValueError(f"{name} must be >= {_LOWEST[k, 0]:g}, got {value:g}")
    return V


@dataclass(frozen=True)
class _Levels:
    """Per-level constants of one machine, as ``(L, 1)`` columns."""

    line: int                  # W, elements per cache line
    capacity: np.ndarray       # cache elements / W, per level
    t_line: np.ndarray         # seconds to move one line from each level
    t_line_mem: float          # seconds to move one line from main memory


@functools.lru_cache(maxsize=16)
def _levels(machine: MachineSpec) -> _Levels:
    """:class:`_Levels` of a (frozen, hence hashable) machine, built once."""
    W = machine.line_elements
    word = machine.word_bytes
    capacity = np.array([[lvl.size_elements(word) / W] for lvl in machine.hierarchy.levels])
    t_line = np.array([[W * lvl.beta(word)] for lvl in machine.hierarchy.levels])
    capacity.setflags(write=False)
    t_line.setflags(write=False)
    return _Levels(W, capacity, t_line, W * machine.beta_mem)


@dataclass
class StencilAnalyticalModel(AnalyticalModel):
    """Multi-level cache analytical model of the 7-point 3-D stencil.

    Parameters
    ----------
    machine:
        Node description providing cache sizes, line length and per-level
        inverse bandwidths; defaults to the Blue Waters XE6 node.
    timesteps:
        Number of sweeps represented by one prediction (must match the
        convention of the measurements being modeled).
    write_allocate:
        Whether stores allocate cache lines (Eq. 3) or not (Eq. 4).
    """

    machine: MachineSpec = None
    timesteps: int = 1
    write_allocate: bool = True

    def __post_init__(self) -> None:
        if self.machine is None:
            self.machine = blue_waters_xe6()
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")

    # ------------------------------------------------------------------ #
    # AnalyticalModel interface
    # ------------------------------------------------------------------ #
    def predict_config(self, config: StencilConfig) -> float:
        """Predicted execution time (seconds) of one configuration."""
        ti, tj, tk = config.blocks
        l = config.order
        W = self.machine.line_elements

        # Blocking re-map of Section VII-A: the per-tile dimensions replace
        # I, J, K, and their extended (ghost-including) counterparts.
        I_eff = math.ceil(ti / W) * W
        II = math.ceil((ti + 2 * l) / W) * W
        J_eff = tj
        JJ = tj + 2 * l
        K_eff = tk
        KK = tk + 2 * l
        nb = int(np.prod(block_counts(config.shape, (ti, tj, tk))))

        pread = 2 * l + 1
        sread = II * JJ
        swrite = I_eff * J_eff
        if self.write_allocate:
            stotal = pread * sread + 1 * swrite          # Eq. 3
        else:
            stotal = pread * sread                        # Eq. 4

        # Misses per level (Eq. 7 x Eq. 15), from L1 outwards; the "misses"
        # of the register level are all accesses.
        lines_per_plane = math.ceil(II / W)
        accesses = lines_per_plane * JJ * KK * (2 * pread - 1) * nb
        misses_prev = accesses
        total_time = 0.0
        for level in self.machine.hierarchy.levels:
            nplanes = self._nplanes(level.size_elements(self.machine.word_bytes),
                                    W, pread, sread, stotal, II)
            misses = lines_per_plane * JJ * KK * nplanes * nb
            hits = max(0.0, misses_prev - misses)
            t_data = W * level.beta(self.machine.word_bytes)  # per cacheline
            total_time += t_data * hits
            misses_prev = misses

        # Main memory services the last level's misses.
        t_data_mem = W * self.machine.beta_mem
        total_time += t_data_mem * misses_prev

        return float(total_time * self.timesteps)

    def predict_rows(self, X: np.ndarray, feature_names) -> np.ndarray:
        """Vectorized :meth:`predict_config` over a whole feature matrix.

        Bit-identical to ``predict_config(config_from_features(row))``
        for every row, and raises the same ``ValueError`` for a row
        :class:`StencilConfig` rejects (``I``, ``J``, ``K`` below 1,
        negative blocking, ``unroll`` outside [0, 8], ``threads`` below
        1).  It runs a fixed number of whole-array passes whatever the
        batch size: the modeling-vector columns as one ``(8, n)`` block,
        the blocking re-map on ``(3, n)`` blocks, every cache level as
        one ``(L, n)`` broadcast against the machine's per-level
        constants, the three R1–R4 interpolations stacked, and
        :meth:`_nplanes`'s case split as nested ``np.where``.  Each
        expression keeps the scalar path's operand order, so every
        intermediate rounds as it does there.
        """
        V = _stencil_columns(X, feature_names)
        levels = _levels(self.machine)
        W = levels.line
        l = 1.0  # StencilConfig default order
        pread = 2 * l + 1
        rcol = pread / (2.0 * pread - 1.0)

        # Blocking re-map of Section VII-A on (3, n) blocks: 0 means
        # un-blocked (full extent).
        shape = V[:3]
        tiles = np.minimum(np.where(V[3:6] > 0, V[3:6], shape), shape)
        nb = np.prod(np.ceil(shape / tiles), axis=0)
        ti, tj, tk = tiles
        I_eff = np.ceil(ti / W) * W
        II = np.ceil((ti + 2 * l) / W) * W
        JJ = tj + 2 * l
        KK = tk + 2 * l

        sread = II * JJ
        stotal = pread * sread
        if self.write_allocate:
            stotal = stotal + I_eff * tj                   # Eq. 3 (else Eq. 4)
        base = np.ceil(II / W) * JJ * KK                   # lines per plane * JJ * KK
        accesses = base * (2 * pread - 1) * nb

        # R1-R4 for every (level, row), then the three interpolations of
        # _nplanes stacked as (3, L, n): upper -> 0, lower -> 1.
        cap = levels.capacity
        cap_rcol = cap * rcol
        r1 = cap_rcol >= stotal
        r2 = cap > stotal
        r3 = cap_rcol > sread
        r4 = cap_rcol < pread * II
        value = np.stack((cap_rcol, cap, cap_rcol))
        upper = np.stack((stotal, stotal, sread))[:, None]
        lower = np.stack((stotal * rcol, sread / rcol, pread * II))[:, None]
        span = np.where(upper > lower, upper - lower, 1.0)
        frac = np.where(upper <= lower, 1.0, np.clip((upper - value) / span, 0.0, 1.0))
        offsets = np.array([1.0, pread - 1.0, pread])[:, None, None]
        slopes = np.array([pread - 2.0, 1.0, pread - 1.0])[:, None, None]
        v2, v3, v4 = offsets + slopes * frac
        nplanes = np.where(r1, 1.0, np.where(r2, v2, np.where(
            r3, v3, np.where(r4, 2.0 * pread - 1.0, v4))))

        # Misses per level (Eq. 7 x Eq. 15); each level's hits are the
        # previous level's misses minus its own, the registers' being
        # all accesses; main memory services the last level's misses.
        misses = base * nplanes * nb
        hits = np.maximum(0.0, np.concatenate((accesses[None], misses[:-1])) - misses)
        total = np.add.reduce(levels.t_line * hits, axis=0, initial=0.0)
        total = total + levels.t_line_mem * misses[-1]
        return total * self.timesteps

    def config_from_features(self, row: np.ndarray, feature_names) -> StencilConfig:
        """Build a :class:`StencilConfig` from a numeric feature row."""
        values = {name: float(v) for name, v in zip(feature_names, row, strict=True)}
        return StencilConfig(
            I=int(round(values.get("I", 1))),
            J=int(round(values.get("J", 1))),
            K=int(round(values.get("K", 1))),
            bi=int(round(values.get("bi", 0))),
            bj=int(round(values.get("bj", 0))),
            bk=int(round(values.get("bk", 0))),
            unroll=int(round(values.get("unroll", 0))),
            threads=int(round(values.get("threads", 1))),
        )

    # ------------------------------------------------------------------ #
    # nplanes case analysis (Section IV-A)
    # ------------------------------------------------------------------ #
    def _nplanes(self, cache_elements: int, W: int, pread: int,
                 sread: float, stotal: float, II: float) -> float:
        """Planes read from the next level per k-iteration.

        The paper gives five cases guarded by conditions R1–R4 and smooths
        the transitions with linear interpolation; we interpolate on the
        ratio of cache capacity to the working-set quantity that defines
        each boundary.
        """
        rcol = pread / (2.0 * pread - 1.0)
        cap = cache_elements / W        # capacity measured in "new lines" worth

        r1 = cap * rcol >= stotal        # whole working set fits (with column reuse)
        r2 = cap > stotal                # working set fits without column reuse
        r3 = cap * rcol > sread          # one read plane fits
        r4 = cap * rcol < pread * II     # not even pread rows fit

        if r1:
            return 1.0
        if r2:
            # Between 1 and pread - 1: interpolate on how far capacity is
            # below the R1 boundary.
            frac = self._fraction(cap * rcol, stotal, stotal * rcol)
            return 1.0 + (pread - 2.0) * frac
        if r3:
            # Between pread - 1 and pread.
            frac = self._fraction(cap, stotal, sread / rcol)
            return (pread - 1.0) + 1.0 * frac
        if not r4:
            # Between pread and 2*pread - 1.
            frac = self._fraction(cap * rcol, sread, pread * II)
            return pread + (pread - 1.0) * frac
        return 2.0 * pread - 1.0

    @staticmethod
    def _fraction(value: float, upper: float, lower: float) -> float:
        """Linear position of *value* between *upper* (-> 0) and *lower* (-> 1)."""
        if upper <= lower:
            return 1.0
        return float(np.clip((upper - value) / (upper - lower), 0.0, 1.0))
