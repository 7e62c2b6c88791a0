"""Reference seconds: wall time scaled by the host's speed at that moment.

The benchmark runs on a small shared virtual machine whose speed moves by
1.5x within seconds and by up to 2x within an hour, with next to no steal
time in ``/proc/stat`` to show it.  Wall seconds measured on such a host
say as much about the host as about the program.

So the benchmark times a fixed reference task (:func:`reference_task`) at
checkpoints around each CPU-bound phase it measures, in the same process,
and reports the phase in reference seconds::

    reference_s = wall_s * REFERENCE_S / (mean reference time at the phase's two ends)

The reference task is benchmark code: a change to the program moves a
phase's reference seconds by as much as its wall seconds, while a slower
host moves the phase and the reference task together and cancels out.  A
reference second is a second on a host that runs the reference task in
``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

#: Nominal reference-task time: a host that takes this long is the reference host.
REFERENCE_S = 0.05

_RNG = np.random.default_rng(2019)
_X = _RNG.random((3000, 6))
_Y = _X @ _RNG.random(6) + 0.1 * _RNG.random(3000)


def _grow(rows: np.ndarray, depth: int) -> int:
    """Grow one regression-tree node by exhaustive split search; count nodes."""
    if depth == 0 or len(rows) < 16:
        return 1
    y = _Y[rows]
    best, feature, threshold = np.inf, 0, 0.0
    for f in range(_X.shape[1]):
        x = _X[rows, f]
        order = np.argsort(x, kind="stable")
        ys = y[order]
        s, s2 = np.cumsum(ys), np.cumsum(ys * ys)
        n = np.arange(1, len(ys), dtype=float)
        sse = (s2[:-1] - s[:-1] ** 2 / n) + (
            (s2[-1] - s2[:-1]) - (s[-1] - s[:-1]) ** 2 / (len(ys) - n))
        k = int(np.argmin(sse))
        if sse[k] < best:
            best, feature, threshold = sse[k], f, x[order[k]]
    left = _X[rows, feature] <= threshold
    return 1 + _grow(rows[left], depth - 1) + _grow(rows[~left], depth - 1)


def reference_task() -> int:
    """A fixed regression-tree fit: numpy kernels driven from Python, as in
    the program's tree engines, which do most of its work."""
    return _grow(np.arange(len(_Y)), 8)


class HostClock:
    """Reference-task checkpoints and the reference seconds between them.

    :meth:`checkpoint` times the reference task; :meth:`measure` runs a
    phase after the latest checkpoint, takes a new one and scales the
    phase's wall time by the two.  Call :meth:`checkpoint` before a phase
    that does not directly follow another measured one.  The checkpoints'
    own CPU time is kept in :attr:`cpu_s` so that CPU metrics can leave it
    out.
    """

    def __init__(self, span=None) -> None:
        self._span = span or (lambda name: contextlib.nullcontext())
        self.samples: list[float] = []
        self.cpu_s = 0.0

    def checkpoint(self) -> float:
        """Time the reference task once; return its wall seconds."""
        with self._span("bench.reference"):
            cpu = time.thread_time()
            start = time.perf_counter()
            reference_task()
            took = time.perf_counter() - start
            self.cpu_s += time.thread_time() - cpu
        self.samples.append(took)
        return took

    def measure(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), wall seconds, reference seconds)`` of one phase."""
        if not self.samples:
            self.checkpoint()
        before = self.samples[-1]
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        after = self.checkpoint()
        return result, wall, self.scale(wall, (before + after) / 2)

    @staticmethod
    def scale(wall_s: float, reference_took_s: float) -> float:
        """Reference seconds of *wall_s* spent where the task took *reference_took_s*."""
        return wall_s * REFERENCE_S / reference_took_s

    def median_s(self, since: int = 0) -> float:
        """Median reference-task time over the checkpoints from index *since*."""
        return statistics.median(self.samples[since:])


class Tally:
    """Wall and reference seconds summed over consecutive phases of one clock.

    A set-up or sweep is several phases, with a checkpoint after each, so
    that each part is scaled by the host's speed while it ran.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.wall_s = 0.0
        self.reference_s = 0.0

    def __call__(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as the next phase; return its result."""
        result, wall, reference = self.clock.measure(fn, *args, **kwargs)
        self.wall_s += wall
        self.reference_s += reference
        return result
