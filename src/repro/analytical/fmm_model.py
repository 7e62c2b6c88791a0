"""Analytical model for the fast multipole method (Section IV-B).

The model covers the two dominant FMM phases:

* **P2P** computation cost (Eq. 8): ``T_flop = 27 q N t_c`` and memory
  cost (Eq. 12): ``T_mem = N beta + N L / (Z^(1/3) q^(2/3)) beta``;
* **M2L** computation cost (Eq. 9): ``T_flop = 189 N k^6 / q t_c`` and
  memory cost (Eq. 14):
  ``T_mem = N k^6 / q beta + N k^2 L / (q Z^(1/3)) beta``.

Each phase combines its flop and memory terms with the roofline rule
(Eq. 2) and the two phases are summed.  Like the paper's model it is a
*single-core*, full-tree model: it does not use the ``threads`` feature,
which is the main source of its error on the (t, N, q, k) dataset
(the paper reports 84.5% MAPE for the untuned model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytical.base import AnalyticalModel, roofline_time
from repro.fmm.config import FmmConfig
from repro.machine import MachineSpec, blue_waters_xe6

__all__ = ["FmmAnalyticalModel"]


@dataclass
class FmmAnalyticalModel(AnalyticalModel):
    """Analytical model of the dominant FMM phases (P2P and M2L).

    Parameters
    ----------
    machine:
        Node description providing ``t_c``, ``beta_mem``, the cache-line
        length ``L`` and last-level cache size ``Z``; defaults to the Blue
        Waters XE6 node.
    p2p_flops_constant:
        The ``27 q N`` prefactor of Eq. 8 counts interactions with the 26
        neighbours plus the cell itself; the per-interaction flop count is
        folded into this constant (1.0 reproduces the paper's expression
        verbatim, i.e. one flop-time ``t_c`` per interaction).
    m2l_flops_constant:
        The ``189 k^6`` operation count of the Cartesian M2L (Eq. 9).
    include_expansion_phases:
        If True, also charge the lighter P2M/M2M/L2L/L2P phases
        (``O(N k^3)`` and ``O((N/q) k^6)``); the paper's model omits them.
    """

    machine: MachineSpec = None
    p2p_flops_constant: float = 27.0
    m2l_flops_constant: float = 189.0
    include_expansion_phases: bool = False

    def __post_init__(self) -> None:
        if self.machine is None:
            self.machine = blue_waters_xe6()
        if self.p2p_flops_constant <= 0 or self.m2l_flops_constant <= 0:
            raise ValueError("flop constants must be > 0")

    # ------------------------------------------------------------------ #
    def predict_config(self, config: FmmConfig) -> float:
        """Predicted execution time (seconds) of one configuration."""
        n = float(config.n_particles)
        q = float(config.particles_per_leaf)
        k = float(config.order)
        tc = self.machine.tc
        beta = self.machine.beta_mem
        L = float(self.machine.line_elements)
        Z = float(self.machine.hierarchy.last_level.size_elements(self.machine.word_bytes))

        # ---- P2P (Eq. 8 and Eq. 12) ----
        t_flop_p2p = self.p2p_flops_constant * q * n * tc
        t_mem_p2p = n * beta + (n * L / (Z ** (1.0 / 3.0) * q ** (2.0 / 3.0))) * beta
        t_p2p = roofline_time(t_flop_p2p, t_mem_p2p)

        # ---- M2L (Eq. 9 and Eq. 14) ----
        t_flop_m2l = self.m2l_flops_constant * n * k ** 6 / q * tc
        t_mem_m2l = (n * k ** 6 / q) * beta + (n * k ** 2 * L / (q * Z ** (1.0 / 3.0))) * beta
        t_m2l = roofline_time(t_flop_m2l, t_mem_m2l)

        total = t_p2p + t_m2l

        if self.include_expansion_phases:
            terms = k ** 3 / 6.0
            t_p2m_l2p = 2.0 * n * terms * 6.0 * tc
            t_m2m_l2l = 2.0 * (n / q) * 8.0 * terms ** 2 * tc
            total += t_p2m_l2p + t_m2m_l2l

        return float(total)

    def predict_phases(self, config: FmmConfig) -> dict[str, float]:
        """Per-phase predictions (P2P and M2L separately), for inspection."""
        n = float(config.n_particles)
        q = float(config.particles_per_leaf)
        k = float(config.order)
        tc = self.machine.tc
        beta = self.machine.beta_mem
        L = float(self.machine.line_elements)
        Z = float(self.machine.hierarchy.last_level.size_elements(self.machine.word_bytes))
        return {
            "p2p_flops": self.p2p_flops_constant * q * n * tc,
            "p2p_mem": n * beta + (n * L / (Z ** (1.0 / 3.0) * q ** (2.0 / 3.0))) * beta,
            "m2l_flops": self.m2l_flops_constant * n * k ** 6 / q * tc,
            "m2l_mem": (n * k ** 6 / q) * beta
            + (n * k ** 2 * L / (q * Z ** (1.0 / 3.0))) * beta,
        }

    def predict_rows(self, X: np.ndarray, feature_names) -> np.ndarray:
        """Vectorized :meth:`predict_config` over a whole feature matrix.

        Applies the same integer rounding and range validation as
        :meth:`config_from_features` / :class:`FmmConfig` and evaluates
        Eq. 8/9/12/14 with the identical expression order, so the result
        matches the per-row path bit for bit without rebuilding an
        :class:`FmmConfig` per sample.
        """
        # A repeated column counts by its last occurrence, as in the
        # per-row path's name -> value dict.
        index = {name: j for j, name in enumerate(feature_names)}

        def col(name: str, default: float) -> np.ndarray:
            if name in index:
                values = np.rint(X[:, index[name]])
            else:
                values = np.full(X.shape[0], float(default))
            # Same bound FmmConfig.__post_init__ enforces on the scalar path.
            if np.any(~(values >= 1)):
                bad = values[~(values >= 1)][0]
                raise ValueError(f"{name} must be >= 1, got {bad:g}")
            return values

        col("threads", 1)
        n = col("n_particles", 1)
        q = col("particles_per_leaf", 1)
        k = col("order", 1)
        tc = self.machine.tc
        beta = self.machine.beta_mem
        L = float(self.machine.line_elements)
        Z = float(self.machine.hierarchy.last_level.size_elements(self.machine.word_bytes))

        t_flop_p2p = self.p2p_flops_constant * q * n * tc
        t_mem_p2p = n * beta + (n * L / (Z ** (1.0 / 3.0) * q ** (2.0 / 3.0))) * beta
        t_p2p = np.maximum(t_flop_p2p, t_mem_p2p)

        t_flop_m2l = self.m2l_flops_constant * n * k ** 6 / q * tc
        t_mem_m2l = (n * k ** 6 / q) * beta + (n * k ** 2 * L / (q * Z ** (1.0 / 3.0))) * beta
        t_m2l = np.maximum(t_flop_m2l, t_mem_m2l)

        total = t_p2p + t_m2l

        if self.include_expansion_phases:
            terms = k ** 3 / 6.0
            t_p2m_l2p = 2.0 * n * terms * 6.0 * tc
            t_m2m_l2l = 2.0 * (n / q) * 8.0 * terms ** 2 * tc
            total = total + (t_p2m_l2p + t_m2m_l2l)

        return np.asarray(total, dtype=np.float64)

    def config_from_features(self, row: np.ndarray, feature_names) -> FmmConfig:
        """Build an :class:`FmmConfig` from a numeric feature row."""
        values = {name: float(v) for name, v in zip(feature_names, row, strict=True)}
        return FmmConfig(
            threads=int(round(values.get("threads", 1))),
            n_particles=int(round(values.get("n_particles", 1))),
            particles_per_leaf=int(round(values.get("particles_per_leaf", 1))),
            order=int(round(values.get("order", 1))),
        )
