"""Wall-clock timing of the executable stencil engine."""

from __future__ import annotations

import time

__all__ = ["timeit_median"]


def timeit_median(func, *, repeats: int = 3, **kwargs) -> float:
    """Run ``func(**kwargs)`` *repeats* times and return the median runtime.

    The median is robust against one-off interference (page faults, GC),
    which matters when timing short kernels.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        func(**kwargs)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    mid = len(samples) // 2
    if len(samples) % 2:
        return samples[mid]
    return 0.5 * (samples[mid - 1] + samples[mid])
