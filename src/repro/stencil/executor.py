"""Run and time stencil configurations on the host machine.

:class:`StencilExecutor` actually executes the (blocked or unblocked)
7-point sweep with NumPy and reports wall-clock time, achieved bandwidth
and flop rate.  It is the "real measurement" path of the reproduction:
examples and integration tests use it on grids that fit in a laptop's
memory, while the full Blue-Waters-scale parameter sweeps of the paper's
figures use :class:`repro.stencil.perf_sim.StencilPerformanceSimulator`
(see ``docs/architecture.md``, layer 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stencil.blocking import blocked_sweep
from repro.stencil.config import StencilConfig
from repro.stencil.grid import Grid3D
from repro.stencil.kernels import flops_per_point, stencil27_sweep, stencil7_sweep
from repro.utils.rng import check_random_state
from repro.utils.timing import timeit_median

__all__ = ["MeasuredRun", "StencilExecutor"]


@dataclass(frozen=True)
class MeasuredRun:
    """Result of one timed stencil execution."""

    config: StencilConfig
    seconds: float
    timesteps: int
    points_updated: int
    flops: int

    @property
    def gflops(self) -> float:
        """Achieved floating-point rate in Gflop/s."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else float("inf")

    @property
    def points_per_second(self) -> float:
        """Grid-point updates per second (LUP/s)."""
        return self.points_updated / self.seconds if self.seconds > 0 else float("inf")

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Lower-bound memory traffic estimate (one read + one write stream) / time."""
        bytes_moved = 2 * 8 * self.points_updated
        return bytes_moved / self.seconds if self.seconds > 0 else float("inf")


class StencilExecutor:
    """Execute stencil configurations and measure wall-clock time.

    Parameters
    ----------
    timesteps:
        Number of Jacobi sweeps per measurement.
    repeats:
        Measurement repetitions; the median is reported.
    max_elements:
        Safety cap on padded grid elements (prevents accidental
        multi-gigabyte allocations when enumerating large spaces).
    c0, c1:
        Stencil coefficients.
    """

    def __init__(self, *, timesteps: int = 2, repeats: int = 3,
                 max_elements: int = 64_000_000,
                 c0: float = 0.4, c1: float = 0.1,
                 random_state=None) -> None:
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.timesteps = timesteps
        self.repeats = repeats
        self.max_elements = max_elements
        self.c0 = c0
        self.c1 = c1
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    def run(self, config: StencilConfig) -> MeasuredRun:
        """Execute one configuration and return its measurement."""
        ii, jj, kk = config.padded_shape()
        n_elements = ii * jj * kk
        if n_elements > self.max_elements:
            raise ValueError(
                f"configuration {config.shape} needs {n_elements} padded elements, "
                f"above the executor cap of {self.max_elements}; "
                "use StencilPerformanceSimulator for sweeps of this size"
            )
        grid = Grid3D(shape=config.shape, order=config.order)
        grid.fill_random(check_random_state(self.random_state))
        src = grid.data
        dst = np.copy(src)

        def _sweeps() -> None:
            a, b = src, dst
            for _ in range(self.timesteps):
                if config.stencil_points == 27:
                    stencil27_sweep(a, b, (0.4, 0.05, 0.02, 0.01))
                elif config.is_blocked:
                    blocked_sweep(a, b, self.c0, self.c1, config.blocks)
                else:
                    stencil7_sweep(a, b, self.c0, self.c1)
                a, b = b, a

        seconds = timeit_median(_sweeps, repeats=self.repeats)
        points = config.grid_points * self.timesteps
        flops = points * flops_per_point(config.stencil_points)
        return MeasuredRun(config=config, seconds=seconds, timesteps=self.timesteps,
                           points_updated=points, flops=flops)

    def run_many(self, configs) -> list[MeasuredRun]:
        """Execute a sequence of configurations."""
        return [self.run(cfg) for cfg in configs]

    def measure_times(self, configs) -> np.ndarray:
        """Execute configurations and return just the times in seconds."""
        return np.array([self.run(cfg).seconds for cfg in configs], dtype=np.float64)

    def times(self, configs) -> np.ndarray:
        """Alias for :meth:`measure_times`.

        Matches the ``times(configs)`` protocol of the performance
        simulators, so the executor can be dropped into the dataset
        generators as a real-measurement source.
        """
        return self.measure_times(configs)
