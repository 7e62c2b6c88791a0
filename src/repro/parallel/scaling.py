"""Analytic thread-scaling models.

Shared-memory codes rarely scale linearly.  Two effects dominate for the
applications in the paper:

* **Serial fraction / synchronization** -- captured by Amdahl's law.
* **Memory-bandwidth saturation** -- a memory-bound kernel (the 7-point
  stencil, FMM P2P at small ``q``) stops scaling once the active threads
  saturate the socket's sustained bandwidth; adding threads beyond that
  point only adds overhead.

:class:`ThreadScalingModel` combines both with a NUMA penalty for crossing
the socket boundary and a small per-thread overhead, and is used by both
performance simulators to produce the "measured" multi-threaded times.
The analytical models of Section IV intentionally do *not* use it -- the
paper's Fig. 7 experiment relies on the analytical model being serial-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "amdahl_speedup",
    "bandwidth_saturation_speedup",
    "ThreadScalingModel",
]


def amdahl_speedup(threads: int, serial_fraction: float) -> float:
    """Amdahl's-law speedup for *threads* threads.

    Parameters
    ----------
    threads:
        Number of threads (>= 1).
    serial_fraction:
        Fraction of the work that cannot be parallelized, in [0, 1].
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not 0.0 <= serial_fraction <= 1.0:
        raise ValueError(f"serial_fraction must be in [0, 1], got {serial_fraction}")
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / threads)


def bandwidth_saturation_speedup(threads: int, saturation_threads: float) -> float:
    """Speedup of a purely bandwidth-bound kernel.

    Scaling is linear until ``saturation_threads`` concurrent threads
    saturate the socket bandwidth, then flat.  A smooth (harmonic) blend is
    used near the knee so that the response surface is continuous, which
    matches observed STREAM-like behaviour better than a hard clamp.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if saturation_threads <= 0:
        raise ValueError("saturation_threads must be > 0")
    # Smooth-min of `threads` and `saturation_threads` keeps the response
    # surface continuous at the saturation knee.
    return _smooth_min(float(threads), float(saturation_threads))


def _smooth_min(a: float, b: float, sharpness: float = 4.0) -> float:
    """Smooth approximation of ``min(a, b)`` (p-norm based)."""
    p = sharpness
    return (a ** -p + b ** -p) ** (-1.0 / p)


@dataclass(frozen=True)
class ThreadScalingModel:
    """Composite thread-scaling model.

    The time with ``t`` threads is

    ``T(t) = T(1) * [ compute_fraction / S_amdahl(t)
                      + (1 - compute_fraction) / S_bw(t) ]
             * numa_penalty(t) + t * overhead_s``

    where ``S_amdahl`` applies to the compute-bound portion of the kernel
    and ``S_bw`` (bandwidth saturation) to the memory-bound portion.

    Parameters
    ----------
    serial_fraction:
        Amdahl serial fraction of the compute-bound portion.
    saturation_threads:
        Threads needed to saturate one socket's memory bandwidth.
    compute_fraction:
        Fraction of the single-thread runtime that is compute bound
        (0 = purely memory bound, 1 = purely compute bound).
    cores_per_socket:
        Crossing this thread count incurs the NUMA penalty.
    numa_penalty:
        Multiplicative slowdown applied (smoothly ramped) once threads span
        both sockets.  1.0 disables the effect.
    overhead_s:
        Per-thread management overhead (fork/join, barrier) in seconds.
    """

    serial_fraction: float = 0.02
    saturation_threads: float = 4.0
    compute_fraction: float = 0.2
    cores_per_socket: int = 8
    numa_penalty: float = 1.15
    overhead_s: float = 5e-6

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be in [0, 1]")
        if not 0.0 <= self.compute_fraction <= 1.0:
            raise ValueError("compute_fraction must be in [0, 1]")
        if self.saturation_threads <= 0:
            raise ValueError("saturation_threads must be > 0")
        if self.cores_per_socket < 1:
            raise ValueError("cores_per_socket must be >= 1")
        if self.numa_penalty < 1.0:
            raise ValueError("numa_penalty must be >= 1.0")
        if self.overhead_s < 0:
            raise ValueError("overhead_s must be >= 0")

    def speedup(self, threads: int) -> float:
        """Effective speedup (ignoring the additive overhead term).

        Normalized so that ``speedup(1) == 1`` exactly (the smooth
        bandwidth-saturation blend would otherwise introduce a sub-percent
        offset at one thread).
        """
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        return self._raw_speedup(threads) / self._raw_speedup(1)

    def _raw_speedup(self, threads: int) -> float:
        return self._mix(self.compute_fraction, *self._terms(threads))

    def _terms(self, threads: int) -> tuple[float, float, float]:
        """Amdahl speedup, bandwidth speedup and NUMA factor at *threads*."""
        return (amdahl_speedup(threads, self.serial_fraction),
                bandwidth_saturation_speedup(threads, self.saturation_threads),
                self._numa_factor(threads))

    @staticmethod
    def _mix(compute_fraction, s_comp, s_bw, penalty):
        """Raw speedup from the per-thread terms (scalars or arrays)."""
        mixed_inverse = (compute_fraction / s_comp
                         + (1.0 - compute_fraction) / s_bw)
        return 1.0 / (mixed_inverse * penalty)

    def time(self, single_thread_time: float, threads: int) -> float:
        """Multi-threaded time for a kernel taking *single_thread_time* serially."""
        if single_thread_time < 0:
            raise ValueError("single_thread_time must be >= 0")
        return single_thread_time / self.speedup(threads) + threads * self.overhead_s

    def time_rows(self, single_thread_times, threads, compute_fraction) -> np.ndarray:
        """Row-wise :meth:`time` with a per-row compute fraction.

        Row ``i`` equals ``replace(self, compute_fraction=compute_fraction[i])
        .time(single_thread_times[i], threads[i])`` bit for bit; pass
        ``self.compute_fraction`` to keep this model's own.  The inputs are
        trusted, not validated.  The Amdahl, bandwidth and NUMA terms depend
        on the thread count alone, so the scalar functions compute them once
        per distinct count: the bandwidth term's smooth-min uses Python
        ``**``, which ``np.power`` does not reproduce to the last bit.
        """
        threads = np.asarray(threads, dtype=np.int64)
        uniq, inverse = np.unique(threads, return_inverse=True)
        table = np.array([self._terms(t) for t in uniq.tolist()]).reshape(len(uniq), 3)
        speedup = (self._mix(compute_fraction, *table[inverse].T)
                   / self._mix(compute_fraction, *self._terms(1)))
        return single_thread_times / speedup + threads * self.overhead_s

    def _numa_factor(self, threads: int) -> float:
        if threads <= self.cores_per_socket or self.numa_penalty == 1.0:
            return 1.0
        # Ramp the penalty in over the second socket's cores.
        extra = threads - self.cores_per_socket
        span = max(1, self.cores_per_socket)
        frac = min(1.0, extra / span)
        return 1.0 + (self.numa_penalty - 1.0) * frac
