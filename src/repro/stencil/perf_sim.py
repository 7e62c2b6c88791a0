"""Cache-hierarchy performance simulator for stencil configurations.

This module is the stand-in for the paper's measurements of PATUS-generated
stencil codes on Blue Waters (see ``docs/architecture.md``, layer 3).
It produces an execution time for every point of the PATUS tuning space
``X = (I, J, K, bi, bj, bk, u, t)`` from first principles:

* per-cache-level data traffic from a working-set/plane-reuse analysis that
  *extends* the analytical model of Section IV-A with effects that model
  deliberately ignores — conflict misses for pathological leading
  dimensions, write-allocate traffic, TLB pressure, per-tile loop overhead,
  and unrolling efficiency;
* a roofline-style combination of memory time and flop time with partial
  (not perfect) overlap;
* multi-threaded execution through the composite
  :class:`repro.parallel.scaling.ThreadScalingModel` (bandwidth saturation
  + Amdahl + NUMA), which the serial analytical model knows nothing about;
* deterministic, configuration-dependent "measurement" noise.

Because the simulator shares its physical skeleton with the analytical
model but adds these un-modeled terms, the analytical model ends up
roughly right on the plain grid-size sweep (the paper's Fig. 5 regime),
noticeably wrong once blocking enters the feature space (Fig. 6, paper
reports 42% MAPE), and blind to thread scaling (Fig. 7) — which is exactly
the structure the hybrid-model experiments require.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter

import numpy as np

from repro.machine import MachineSpec, blue_waters_xe6
from repro.parallel.scaling import ThreadScalingModel
from repro.stencil.blocking import block_counts
from repro.stencil.config import StencilConfig
from repro.stencil.kernels import flops_per_point
from repro.utils.arrays import map_unique
from repro.utils.rng import hashed_noise_factors

__all__ = ["StencilPerformanceSimulator", "SimulatedStencilRun", "SIMULATOR_VERSION"]

#: Bump on any change to the simulated execution times.  The constant is
#: folded into every :class:`~repro.datasets.store.DatasetSpec`
#: fingerprint, so stored datasets produced by an older simulator are
#: invalidated automatically instead of silently served stale.
SIMULATOR_VERSION = 1

_CONFIG_FIELDS = attrgetter("I", "J", "K", "bi", "bj", "bk", "unroll", "threads",
                            "stencil_points", "order")


@dataclass(frozen=True)
class SimulatedStencilRun:
    """Breakdown of one simulated stencil execution."""

    config: StencilConfig
    seconds: float
    serial_seconds: float
    memory_seconds: float
    flop_seconds: float
    overhead_seconds: float
    traffic_bytes_per_level: tuple[float, ...]
    noise_factor: float


class StencilPerformanceSimulator:
    """Simulate "measured" execution times of PATUS stencil configurations.

    Parameters
    ----------
    machine:
        Node description; defaults to the Blue Waters XE6 node.
    timesteps:
        Number of stencil sweeps represented by one measurement.
    noise:
        Relative magnitude of the configuration-dependent deterministic
        jitter plus run-to-run noise (0 disables both).
    tile_overhead_cycles:
        Loop-nest start-up cost charged per tile visit (models the
        PATUS-generated prologue/epilogue code per block).
    tlb_entries / page_bytes:
        Data-TLB reach used for the TLB-pressure term.
    random_state:
        Seed for the run-to-run noise component.
    """

    def __init__(self, machine: MachineSpec | None = None, *,
                 timesteps: int = 1,
                 noise: float = 0.04,
                 tile_overhead_cycles: float = 220.0,
                 tlb_entries: int = 48,
                 page_bytes: int = 4096,
                 scaling: ThreadScalingModel | None = None,
                 random_state=0) -> None:
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if noise < 0:
            raise ValueError("noise must be >= 0")
        self.machine = machine if machine is not None else blue_waters_xe6()
        self.timesteps = timesteps
        self.noise = noise
        self.tile_overhead_cycles = tile_overhead_cycles
        self.tlb_entries = tlb_entries
        self.page_bytes = page_bytes
        self.random_state = random_state
        if scaling is None:
            scaling = ThreadScalingModel(
                serial_fraction=0.03,
                saturation_threads=3.5,
                compute_fraction=0.15,
                cores_per_socket=self.machine.cores_per_socket,
                numa_penalty=1.18,
                overhead_s=8e-6,
            )
        self.scaling = scaling

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, config: StencilConfig) -> SimulatedStencilRun:
        """Simulate one configuration and return the full breakdown.

        This scalar path is the reference for :meth:`times`, which must
        return ``run(c).seconds`` bit for bit.
        """
        word = self.machine.word_bytes
        W = self.machine.line_elements
        ti, tj, tk = config.blocks
        nbi, nbj, nbk = block_counts(config.shape, (ti, tj, tk))
        n_tiles = nbi * nbj * nbk
        l = config.order

        # Padded tile extents seen by the innermost sweep (paper's Eq. 15 remap).
        tii = ti + 2 * l
        tjj = tj + 2 * l
        tkk = tk + 2 * l

        # ---------------- memory traffic per cache level ---------------- #
        pread = 2 * l + 1                # planes read per k-iteration
        sread = tii * tjj                # elements per read plane
        swrite = ti * tj                 # elements per written plane
        lines_per_plane = np.ceil(tii / W) * tjj
        sweep_factor = tkk * n_tiles * self.timesteps

        # Data actually *served* by each level: the difference between the
        # misses of the level above and this level's own misses (hit-based
        # accounting, like the analytical model), inflated by the
        # level-specific conflict-miss factor the analytical model ignores.
        traffic: list[float] = []
        time_mem = 0.0
        nplanes_prev = 2.0 * pread - 1.0  # register level misses everything
        for level in self.machine.hierarchy.levels:
            nplanes = self._nplanes(level.size_elements(word), W, pread,
                                    sread, swrite, tii)
            conflict = self._conflict_factor(tii, level)
            nplanes = min(nplanes * conflict, 2.0 * pread - 1.0)
            served = max(nplanes_prev - nplanes, 0.0)
            elems = lines_per_plane * W * served * sweep_factor
            traffic.append(elems * word)
            time_mem += elems * level.beta(word)
            nplanes_prev = nplanes

        # Main memory serves the last level's misses plus the write-back
        # stream that the analytical model does not charge.
        write_streams = 1.0
        mem_elems = (lines_per_plane * W * nplanes_prev * sweep_factor
                     + write_streams * config.grid_points * self.timesteps)
        mem_bytes = mem_elems * word
        traffic.append(mem_bytes)
        time_mem += mem_elems * self.machine.beta_mem

        # TLB pressure: if one read plane spans more pages than the TLB holds,
        # charge a per-line walk penalty.
        plane_pages = sread * word / self.page_bytes
        if plane_pages > self.tlb_entries:
            walk_penalty = 7.0 / self.machine.clock_hz  # ~7 cycles per (prefetch-hidden) walk
            walks = (config.grid_points * self.timesteps / W) * \
                min(1.0, plane_pages / (self.tlb_entries * 4.0))
            time_mem += walks * walk_penalty

        # ---------------- floating-point time ---------------- #
        flops = config.grid_points * self.timesteps * flops_per_point(config.stencil_points)
        time_flop = flops * self.machine.tc / self._unroll_efficiency(config)

        # ---------------- loop and tile overhead ---------------- #
        overhead = (n_tiles * self.timesteps * self.tile_overhead_cycles
                    / self.machine.clock_hz)
        # Column overhead of very short inner loops (i extent < one vector).
        if ti < W:
            overhead += (config.grid_points * self.timesteps / max(ti, 1)) \
                * 4.0 / self.machine.clock_hz

        # Roofline with partial overlap: the larger term hides 85% of the smaller.
        serial = max(time_mem, time_flop) + 0.15 * min(time_mem, time_flop) + overhead

        # ---------------- threads ---------------- #
        llc = self.machine.hierarchy.last_level
        working_set_bytes = (tii * tjj * tkk + ti * tj * tk) * word
        compute_fraction = float(np.clip(time_flop / max(serial, 1e-30), 0.05, 0.9))
        scaling = replace(
            self.scaling,
            compute_fraction=compute_fraction,
            saturation_threads=self.scaling.saturation_threads
            * (1.6 if working_set_bytes < llc.size_bytes else 1.0),
        )
        total = scaling.time(serial, config.threads)

        # ---------------- noise ---------------- #
        noise_factor = self._noise_factor(config)
        total *= noise_factor

        return SimulatedStencilRun(
            config=config,
            seconds=float(total),
            serial_seconds=float(serial),
            memory_seconds=float(time_mem),
            flop_seconds=float(time_flop),
            overhead_seconds=float(overhead),
            traffic_bytes_per_level=tuple(float(t) for t in traffic),
            noise_factor=float(noise_factor),
        )

    def time(self, config: StencilConfig) -> float:
        """Simulated execution time in seconds for one configuration."""
        return self.run(config).seconds

    def times(self, configs) -> np.ndarray:
        """Simulated execution times for an iterable of configurations.

        The array kernel of :meth:`run` (the scalar reference): it gathers
        the configuration fields into int64 columns and evaluates the model
        on whole columns, looping only over cache levels.  Each expression
        keeps the scalar path's operand order and integer types, so every
        row equals ``run(config).seconds`` bit for bit.
        """
        configs = list(configs)
        I, J, K, bi, bj, bk, u, threads, points, l = np.array(  # noqa: E741
            [_CONFIG_FIELDS(c) for c in configs], dtype=np.int64).reshape(-1, 10).T
        word = self.machine.word_bytes
        W = self.machine.line_elements
        steps = self.timesteps
        clock = self.machine.clock_hz
        # StencilConfig.blocks and block_counts.
        ti = np.minimum(np.where(bi > 0, bi, I), I)
        tj = np.minimum(np.where(bj > 0, bj, J), J)
        tk = np.minimum(np.where(bk > 0, bk, K), K)
        n_tiles = (np.ceil(I / ti).astype(np.int64) * np.ceil(J / tj).astype(np.int64)
                   * np.ceil(K / tk).astype(np.int64))
        grid_points = I * J * K
        tii, tjj, tkk = ti + 2 * l, tj + 2 * l, tk + 2 * l

        pread = 2 * l + 1
        sread = tii * tjj
        swrite = ti * tj
        lines_per_plane = np.ceil(tii / W) * tjj
        sweep_factor = tkk * n_tiles * steps
        stotal = pread * sread + swrite
        rcol = pread / (2.0 * pread - 1.0)
        max_planes = 2.0 * pread - 1.0
        time_mem = 0.0
        nplanes_prev = max_planes
        for level in self.machine.hierarchy.levels:
            effective = level.size_elements(word) / W
            if effective > 0:
                v_full = _smooth_step(effective * rcol / stotal)
                v_most = _smooth_step(effective / stotal)
                v_rows = _smooth_step(effective * rcol / np.maximum(sread, 1))
            else:  # smooth_step(x <= 0) is 1.0
                v_full = v_most = v_rows = 1.0
            # _nplanes; its "+ 0.0 * v_cols" term adds exactly zero.
            nplanes = np.clip(1.0 + (pread - 2.0) * v_full + v_most
                              + (pread - 1.0) * v_rows, 1.0, max_planes)
            conflict = map_unique(partial(self._conflict_factor, level=level), tii)
            nplanes = np.minimum(nplanes * conflict, max_planes)
            served = np.maximum(nplanes_prev - nplanes, 0.0)
            time_mem = time_mem + (lines_per_plane * W * served * sweep_factor
                                   * level.beta(word))
            nplanes_prev = nplanes

        mem_elems = (lines_per_plane * W * nplanes_prev * sweep_factor
                     + 1.0 * grid_points * steps)
        time_mem = time_mem + mem_elems * self.machine.beta_mem
        plane_pages = sread * word / self.page_bytes
        walks = (grid_points * steps / W) * np.minimum(
            1.0, plane_pages / (self.tlb_entries * 4.0))
        time_mem = np.where(plane_pages > self.tlb_entries,
                            time_mem + walks * (7.0 / clock), time_mem)

        flops = grid_points * steps * map_unique(flops_per_point, points)
        # _unroll_efficiency.
        gain = 0.12 * (1.0 - np.exp(-u / 2.0))
        spill = 0.05 * np.maximum(0, u - 4) / 4.0
        short_loop = 0.08 * np.maximum(0.0, (u - np.maximum(ti, 1)) / np.maximum(u, 1))
        efficiency = np.clip(np.where(u == 0, 0.88, 0.88 + gain - spill - short_loop),
                             0.6, 1.0)
        time_flop = flops * self.machine.tc / efficiency

        overhead = n_tiles * steps * self.tile_overhead_cycles / clock
        overhead = np.where(ti < W, overhead + (grid_points * steps / np.maximum(ti, 1))
                            * 4.0 / clock, overhead)
        serial = (np.maximum(time_mem, time_flop) + 0.15 * np.minimum(time_mem, time_flop)
                  + overhead)

        working_set_bytes = (tii * tjj * tkk + ti * tj * tk) * word
        compute_fraction = np.clip(time_flop / np.maximum(serial, 1e-30), 0.05, 0.9)
        in_llc = replace(self.scaling,
                         saturation_threads=self.scaling.saturation_threads * 1.6)
        total = np.where(
            working_set_bytes < self.machine.hierarchy.last_level.size_bytes,
            in_llc.time_rows(serial, threads, compute_fraction),
            self.scaling.time_rows(serial, threads, compute_fraction))
        if self.noise != 0.0:
            total = total * hashed_noise_factors(map(self._noise_key, configs), self.noise)
        return np.asarray(total, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Model components
    # ------------------------------------------------------------------ #
    @staticmethod
    def _nplanes(cache_elements: float, W: int, pread: int,
                 sread: float, swrite: float, tii: float) -> float:
        """Planes re-fetched from the next level per k-iteration.

        Smooth variant of the case analysis of Section IV-A: 1 plane when the
        full working set of a k-iteration fits, up to ``2*pread - 1`` planes
        when not even ``pread`` rows fit.  A logistic blend between the case
        boundaries removes the hard discontinuities (the paper smooths with
        linear interpolation; the simulator's smoothing is intentionally a
        little different so the analytical model is imperfect near the
        boundaries, as real measurements would be).
        """
        stotal = pread * sread + swrite
        rcol = pread / (2.0 * pread - 1.0)
        effective = cache_elements / W  # cache capacity in lines-worth of new data

        def smooth_step(x: float, scale: float = 0.12) -> float:
            # 0 -> 1 transition around x = 1, width ~ scale (in log space).
            if x <= 0:
                return 1.0
            z = np.log(x) / scale
            return float(1.0 / (1.0 + np.exp(np.clip(z, -40.0, 40.0))))

        # Degree to which each regime is violated (1 = fully violated).
        v_full = smooth_step(effective * rcol / stotal)        # R1 violated
        v_most = smooth_step(effective / stotal)               # R2 violated
        v_rows = smooth_step(effective * rcol / max(sread, 1)) # R3 violated
        v_cols = smooth_step(effective * rcol / max(pread * tii, 1))  # R4 nearly violated

        nplanes = 1.0
        nplanes += (pread - 2.0) * v_full        # 1 .. pread-1
        nplanes += 1.0 * v_most                  # .. pread
        nplanes += (pread - 1.0) * v_rows        # .. 2*pread - 1
        nplanes += 0.0 * v_cols
        return float(np.clip(nplanes, 1.0, 2.0 * pread - 1.0))

    def _conflict_factor(self, tii: int, level) -> float:
        """Extra misses when the padded leading dimension aliases cache sets.

        Power-of-two (and near power-of-two) leading dimensions map
        consecutive planes onto the same sets of a physically indexed
        cache; measured stencil codes show 5-40% extra traffic there.  The
        analytical model ignores this entirely.
        """
        row_bytes = tii * self.machine.word_bytes
        sets_span = level.size_bytes / 8  # assume 8-way associativity
        if sets_span <= 0:
            return 1.0
        phase = (row_bytes % 4096) / 4096.0
        # Worst when the row length is an exact multiple of the page/stride.
        alignment_penalty = np.exp(-((min(phase, 1.0 - phase)) / 0.03) ** 2)
        return float(1.0 + 0.30 * alignment_penalty * (level.size_bytes <= 2**21))

    @staticmethod
    def _unroll_efficiency(config: StencilConfig) -> float:
        """Relative instruction-throughput efficiency of the unrolling factor.

        No unrolling leaves ~12% of issue slots on loop control; moderate
        unrolling recovers it; excessive unrolling spills registers and
        hurts, more so when the inner (i) tile is short.
        """
        u = config.unroll
        ti = config.blocks[0]
        base = 0.88
        if u == 0:
            eff = base
        else:
            gain = 0.12 * (1.0 - np.exp(-u / 2.0))
            spill = 0.05 * max(0, u - 4) / 4.0
            short_loop = 0.08 * max(0.0, (u - max(ti, 1)) / max(u, 1))
            eff = base + gain - spill - short_loop
        return float(np.clip(eff, 0.6, 1.0))

    def _noise_key(self, config: StencilConfig) -> str:
        return (f"{config.I},{config.J},{config.K},{config.bi},{config.bj},"
                f"{config.bk},{config.unroll},{config.threads},{self.random_state}")

    def _noise_factor(self, config: StencilConfig) -> float:
        """Deterministic config-dependent jitter plus seeded run-to-run noise."""
        if self.noise == 0.0:
            return 1.0
        digest = hashlib.sha256(self._noise_key(config).encode()).digest()
        u1 = int.from_bytes(digest[:8], "little") / 2**64
        u2 = int.from_bytes(digest[8:16], "little") / 2**64
        # Box-Muller: standard normal from the two uniforms.
        z = np.sqrt(-2.0 * np.log(max(u1, 1e-12))) * np.cos(2.0 * np.pi * u2)
        systematic = self.noise * float(np.clip(z, -3.0, 3.0))
        return float(np.exp(systematic))


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """Array form of ``_nplanes``'s ``smooth_step`` for ``x > 0``."""
    return 1.0 / (1.0 + np.exp(np.clip(np.log(x) / 0.12, -40.0, 40.0)))
