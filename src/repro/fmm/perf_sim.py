"""Per-phase performance simulator for FMM configurations.

Stand-in for the paper's ExaFMM measurements on Blue Waters (DESIGN.md,
substitution table).  Given a configuration ``(t, N, q, k)`` and a machine
description it produces an execution time built phase by phase — tree
construction, P2M, M2M, M2L, L2L, L2P and P2P — from operation counts and
memory-traffic estimates that *extend* the Section IV-B analytical model
with the effects real FMM codes exhibit and the model ignores:

* the tree depth is discrete, so the *actual* particles-per-leaf is
  ``N / 8^depth`` rather than the requested ``q`` (staircase response);
* leaf cells on the domain boundary have fewer than 26 neighbours and 189
  well-separated cells;
* the P2P inner kernel vectorizes poorly for small leaves (SIMD remainder
  loops) and the M2L operator has a non-trivial constant per coefficient
  pair;
* each phase scales differently with threads (P2P is compute bound, M2L
  partially bandwidth bound, the upward/downward passes and the tree build
  barely scale);
* deterministic configuration-dependent "measurement" noise.

The analytical model of Section IV-B is single-core and assumes an ideal
full tree, so its error against this simulator is small for serial,
tree-friendly configurations and large once threads and staircase effects
enter — mirroring the paper's reported 84.5% analytical-model MAPE on the
full (t, N, q, k) dataset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.fmm.config import FmmConfig
from repro.machine import MachineSpec, blue_waters_xe6
from repro.parallel.scaling import ThreadScalingModel
from repro.utils.arrays import map_unique
from repro.utils.rng import hashed_noise_factors

__all__ = ["FmmPerformanceSimulator", "SimulatedFmmRun", "SIMULATOR_VERSION"]

#: Bump on any change to the simulated execution times.  The constant is
#: folded into every :class:`~repro.datasets.store.DatasetSpec`
#: fingerprint, so stored datasets produced by an older simulator are
#: invalidated automatically instead of silently served stale.
SIMULATOR_VERSION = 1

_CONFIG_FIELDS = attrgetter("threads", "n_particles", "particles_per_leaf", "order")


@dataclass(frozen=True)
class SimulatedFmmRun:
    """Breakdown of one simulated FMM execution."""

    config: FmmConfig
    seconds: float
    phase_seconds: dict[str, float]
    noise_factor: float

    @property
    def dominant_phase(self) -> str:
        """Name of the costliest phase."""
        return max(self.phase_seconds, key=self.phase_seconds.get)


class FmmPerformanceSimulator:
    """Simulate "measured" execution times of ExaFMM-style runs.

    Parameters
    ----------
    machine:
        Node description; defaults to the Blue Waters XE6 node.
    noise:
        Relative magnitude of the deterministic configuration jitter.
    flops_per_p2p_interaction:
        Floating-point operations per particle-particle interaction
        (distance, rsqrt, accumulate — ~20 for a Laplace potential+force
        kernel).
    simd_width:
        Vector width in doubles, used for the small-leaf SIMD-efficiency
        penalty.
    random_state:
        Seed folded into the deterministic noise.
    """

    def __init__(self, machine: MachineSpec | None = None, *,
                 noise: float = 0.05,
                 flops_per_p2p_interaction: float = 11.0,
                 flops_per_m2l_coeff_pair: float = 30.0,
                 simd_width: int = 4,
                 random_state=0) -> None:
        if noise < 0:
            raise ValueError("noise must be >= 0")
        self.machine = machine if machine is not None else blue_waters_xe6()
        self.noise = noise
        self.flops_per_p2p_interaction = flops_per_p2p_interaction
        self.flops_per_m2l_coeff_pair = flops_per_m2l_coeff_pair
        self.simd_width = simd_width
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, config: FmmConfig) -> SimulatedFmmRun:
        """Simulate one configuration and return the per-phase breakdown.

        This scalar path is the reference for :meth:`times`, which must
        return ``run(c).seconds`` bit for bit.
        """
        n = config.n_particles
        k = config.order
        q_req = config.particles_per_leaf
        tc = self.machine.tc
        beta = self.machine.beta_mem
        word = self.machine.word_bytes
        L = self.machine.line_elements
        Z = self.machine.hierarchy.last_level.size_elements(word)

        # Discrete full-tree geometry: the real code rounds the tree depth.
        depth = max(0, int(np.ceil(np.log(max(n / q_req, 1.0)) / np.log(8.0))))
        n_leaves = 8 ** depth
        q_eff = n / n_leaves                      # actual particles per leaf
        n_cells = (8 ** (depth + 1) - 1) // 7     # all levels of a full octree
        terms = k * (k + 1) * (k + 2) / 6.0       # Cartesian coefficients per cell

        # Boundary-corrected average list sizes (interior values 26 and 189).
        interior_frac = self._interior_fraction(n_leaves)
        b_p2p = 26.0 * (0.55 + 0.45 * interior_frac)
        b_m2l = 189.0 * (0.45 + 0.55 * interior_frac)

        phases: dict[str, float] = {}

        # ---------------- tree construction + traversal ---------------- #
        phases["tree"] = 90.0 * n * max(1.0, np.log2(max(n_leaves, 2))) \
            / self.machine.clock_hz
        phases["traversal"] = 400.0 * n_leaves * 1.2 / self.machine.clock_hz

        # ---------------- P2M / M2M ---------------- #
        phases["p2m"] = n * terms * 6.0 * tc
        phases["m2m"] = max(0, n_cells - n_leaves) * 8 * terms ** 2 * 1.2 * tc

        # ---------------- M2L ---------------- #
        m2l_interactions = b_m2l * n_leaves * 1.15  # parent levels add ~15%
        flop_m2l = m2l_interactions * (terms ** 2) * self.flops_per_m2l_coeff_pair
        # Memory: multipole+local coefficients streamed per interaction; reuse
        # degrades once the per-level working set exceeds the LLC.
        coeff_bytes = terms * word
        working_set = n_leaves * coeff_bytes * 2.0
        reuse = 1.0 / (1.0 + working_set / (Z * word))
        mem_m2l = m2l_interactions * coeff_bytes * (1.0 - 0.7 * reuse) \
            + n_leaves * coeff_bytes * 2.0
        t_m2l = max(flop_m2l * tc, (mem_m2l / word) * beta) \
            + 0.2 * min(flop_m2l * tc, (mem_m2l / word) * beta)
        phases["m2l"] = t_m2l

        # ---------------- L2L / L2P ---------------- #
        phases["l2l"] = max(0, n_cells - n_leaves) * 8 * terms ** 2 * 1.2 * tc
        phases["l2p"] = n * terms * 6.0 * tc

        # ---------------- P2P ---------------- #
        pair_count = (b_p2p + 1.0) * q_eff * n
        # SIMD remainder penalty for small leaves.
        simd_eff = min(1.0, (q_eff / (q_eff + self.simd_width)) + 0.25)
        flop_p2p = pair_count * self.flops_per_p2p_interaction / simd_eff
        # Memory: 4 values per source particle (paper's factor), plus list reads.
        mem_p2p = (4.0 * n + b_p2p * n / max(q_eff, 1.0)) * word \
            + n * word * (L / (max(Z, 1.0) ** (1.0 / 3.0) * max(q_eff, 1.0) ** (2.0 / 3.0)))
        t_p2p = max(flop_p2p * tc, (mem_p2p / word) * beta) \
            + 0.2 * min(flop_p2p * tc, (mem_p2p / word) * beta)
        phases["p2p"] = t_p2p

        # ---------------- thread scaling, per phase ---------------- #
        scaled = {name: self._phase_model(name).time(seconds, config.threads)
                  for name, seconds in phases.items()}

        total = sum(scaled.values())
        noise_factor = self._noise_factor(config)
        total *= noise_factor

        return SimulatedFmmRun(config=config, seconds=float(total),
                               phase_seconds={k_: float(v) for k_, v in scaled.items()},
                               noise_factor=float(noise_factor))

    def time(self, config: FmmConfig) -> float:
        """Simulated execution time in seconds for one configuration."""
        return self.run(config).seconds

    def times(self, configs) -> np.ndarray:
        """Simulated execution times for an iterable of configurations.

        The array kernel of :meth:`run` (the scalar reference): it gathers
        the configuration fields into int64 columns and evaluates each
        phase on whole columns, looping only over phases for the thread
        scaling.  Each expression keeps the scalar path's operand order and
        integer types, and the Python ``**`` terms are computed by scalar
        code once per distinct value, so every row equals
        ``run(config).seconds`` bit for bit.
        """
        configs = list(configs)
        threads, n, q_req, k = np.array(
            [_CONFIG_FIELDS(c) for c in configs], dtype=np.int64).reshape(-1, 4).T
        tc = self.machine.tc
        beta = self.machine.beta_mem
        word = self.machine.word_bytes
        L = self.machine.line_elements
        Z = self.machine.hierarchy.last_level.size_elements(word)
        clock = self.machine.clock_hz

        depth = np.maximum(0, np.ceil(np.log(np.maximum(n / q_req, 1.0))
                                      / np.log(8.0)).astype(np.int64))
        n_leaves = 8 ** depth
        q_eff = n / n_leaves
        n_cells = (8 ** (depth + 1) - 1) // 7
        terms = k * (k + 1) * (k + 2) / 6.0
        terms_sq = map_unique(lambda t: t ** 2, terms)
        interior_frac = map_unique(self._interior_fraction, n_leaves)
        b_p2p = 26.0 * (0.55 + 0.45 * interior_frac)
        b_m2l = 189.0 * (0.45 + 0.55 * interior_frac)

        tree = 90.0 * n * np.maximum(1.0, np.log2(np.maximum(n_leaves, 2))) / clock
        traversal = 400.0 * n_leaves * 1.2 / clock
        p2m = n * terms * 6.0 * tc          # = l2p
        m2m = np.maximum(0, n_cells - n_leaves) * 8 * terms_sq * 1.2 * tc  # = l2l

        m2l_interactions = b_m2l * n_leaves * 1.15
        flop_m2l = m2l_interactions * terms_sq * self.flops_per_m2l_coeff_pair
        coeff_bytes = terms * word
        working_set = n_leaves * coeff_bytes * 2.0
        reuse = 1.0 / (1.0 + working_set / (Z * word))
        mem_m2l = m2l_interactions * coeff_bytes * (1.0 - 0.7 * reuse) \
            + n_leaves * coeff_bytes * 2.0
        m2l = np.maximum(flop_m2l * tc, (mem_m2l / word) * beta) \
            + 0.2 * np.minimum(flop_m2l * tc, (mem_m2l / word) * beta)

        pair_count = (b_p2p + 1.0) * q_eff * n
        simd_eff = np.minimum(1.0, (q_eff / (q_eff + self.simd_width)) + 0.25)
        flop_p2p = pair_count * self.flops_per_p2p_interaction / simd_eff
        leaf_root = map_unique(lambda q: max(q, 1.0) ** (2.0 / 3.0), q_eff)
        mem_p2p = (4.0 * n + b_p2p * n / np.maximum(q_eff, 1.0)) * word \
            + n * word * (L / (max(Z, 1.0) ** (1.0 / 3.0) * leaf_root))
        p2p = np.maximum(flop_p2p * tc, (mem_p2p / word) * beta) \
            + 0.2 * np.minimum(flop_p2p * tc, (mem_p2p / word) * beta)

        total = 0
        for name, seconds in (("tree", tree), ("traversal", traversal), ("p2m", p2m),
                              ("m2m", m2m), ("m2l", m2l), ("l2l", m2m), ("l2p", p2m),
                              ("p2p", p2p)):
            model = self._phase_model(name)
            total = total + model.time_rows(seconds, threads, model.compute_fraction)
        if self.noise != 0.0:
            total = total * hashed_noise_factors(map(self._noise_key, configs), self.noise)
        return np.asarray(total, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    _PHASE_SCALING = {
        # (serial_fraction, saturation_threads, compute_fraction)
        "tree": (0.45, 2.5, 0.30),
        "traversal": (0.30, 3.0, 0.50),
        "p2m": (0.05, 4.0, 0.85),
        "m2m": (0.25, 4.0, 0.80),
        "m2l": (0.04, 5.0, 0.70),
        "l2l": (0.25, 4.0, 0.80),
        "l2p": (0.05, 4.0, 0.85),
        "p2p": (0.02, 8.0, 0.92),
    }

    def _phase_model(self, name: str) -> ThreadScalingModel:
        serial_fraction, saturation, compute_fraction = self._PHASE_SCALING[name]
        return ThreadScalingModel(
            serial_fraction=serial_fraction,
            saturation_threads=saturation,
            compute_fraction=compute_fraction,
            cores_per_socket=self.machine.cores_per_socket,
            numa_penalty=1.12,
            overhead_s=4e-6,
        )

    @staticmethod
    def _interior_fraction(n_leaves: int) -> float:
        """Fraction of leaf cells away from the domain boundary."""
        cells_per_dim = max(1.0, n_leaves ** (1.0 / 3.0))
        return ((cells_per_dim - 2.0) / cells_per_dim) ** 3 if cells_per_dim > 2 else 0.0

    def _noise_key(self, config: FmmConfig) -> str:
        return (f"{config.threads},{config.n_particles},{config.particles_per_leaf},"
                f"{config.order},{self.random_state}")

    def _noise_factor(self, config: FmmConfig) -> float:
        if self.noise == 0.0:
            return 1.0
        digest = hashlib.sha256(self._noise_key(config).encode()).digest()
        u1 = int.from_bytes(digest[:8], "little") / 2**64
        u2 = int.from_bytes(digest[8:16], "little") / 2**64
        z = np.sqrt(-2.0 * np.log(max(u1, 1e-12))) * np.cos(2.0 * np.pi * u2)
        return float(np.exp(self.noise * float(np.clip(z, -3.0, 3.0))))
