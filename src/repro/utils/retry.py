"""Shared retry-with-backoff policy for fallible I/O paths.

Every network- or disk-touching seam of the system (the HTTP object-store
client, the fleet worker's connect/reconnect path) retries transient
failures through one :class:`RetryPolicy` instead of ad-hoc sleep loops,
so the backoff shape, the per-attempt timeout and the retry budget are
tunable in one place and observable everywhere (``on_retry`` is the hook the callers use to count and log
every degradation — a retry is never silent).

The policy is deliberately dependency-free and deterministic under test:
``sleep`` and ``rng`` are injectable, so unit tests assert the exact
delay sequence without waiting for it.

Beyond the caller's ``on_retry`` hook, every scheduled retry also lands
on the shared telemetry plane (:mod:`repro.obs`): the process-wide
``repro_retry_attempts_total{error=...}`` counter increments and, when
the call runs inside an active trace span, a ``retry`` event is stamped
onto it — so backoff storms are visible on any ``/metrics`` endpoint
and in ``--trace`` dumps without each call site re-instrumenting.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.obs.metrics import REGISTRY
from repro.obs.tracing import TRACER

__all__ = ["RetryPolicy", "DEFAULT_POLICY"]

#: Process-wide count of scheduled retries, labeled by exception type
#: (a small closed set: the transport errors ``retry_on`` admits).
RETRY_ATTEMPTS = REGISTRY.counter(
    "repro_retry_attempts_total",
    "Retries scheduled by RetryPolicy.call, by exception type",
    labelnames=("error",))


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + jitter with an attempt and wall-clock budget.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first one (``1`` = no retries).
    base_delay:
        Delay before the first retry, in seconds.
    multiplier:
        Backoff factor between consecutive retries.
    max_delay:
        Upper bound on a single backoff delay.
    jitter:
        Fraction of each delay that is randomized (``0.5`` means the
        actual delay is uniform in ``[0.5 * d, d]``) — a fleet of workers
        retrying the same dead store must not stampede in lockstep.
    max_elapsed:
        Optional wall-clock budget across all attempts; once exceeded no
        further retry is scheduled even when attempts remain.
    attempt_timeout:
        Advisory per-attempt timeout in seconds.  The policy cannot
        interrupt an arbitrary callable, so I/O callers feed this into
        their transport (e.g. ``urllib``'s ``timeout=``) — it lives here
        so one object describes the complete failure behaviour.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    max_elapsed: float | None = None
    attempt_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self, rng: random.Random | None = None) -> Iterator[float]:
        """The backoff delay before each retry (``max_attempts - 1`` values)."""
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            bounded = min(delay, self.max_delay)
            if self.jitter and rng is not None:
                bounded *= 1.0 - self.jitter * rng.random()
            yield bounded
            delay *= self.multiplier

    def call(self, fn: Callable, *,
             retry_on: tuple[type[BaseException], ...] = (OSError,),
             giveup: Callable[[BaseException], bool] | None = None,
             on_retry: Callable[[int, BaseException, float], None] | None = None,
             sleep: Callable[[float], None] = time.sleep,
             rng: random.Random | None = None,
             clock: Callable[[], float] = time.monotonic):
        """Run *fn* until it succeeds or the retry budget is exhausted.

        Only exceptions matching *retry_on* (and for which *giveup*, when
        given, returns false) are retried; anything else propagates
        immediately.  *on_retry(attempt, exc, delay)* fires before every
        backoff sleep — callers use it to count and log the degradation.
        The exception of the final attempt is re-raised unchanged, so
        existing ``except`` clauses around the call keep working.
        """
        if rng is None:
            rng = random.Random()
        start = clock()
        delays = self.delays(rng)
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except retry_on as exc:
                if giveup is not None and giveup(exc):
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise
                if (self.max_elapsed is not None
                        and clock() - start + delay > self.max_elapsed):
                    raise
                RETRY_ATTEMPTS.labels(error=type(exc).__name__).inc()
                TRACER.event("retry", attempt=attempt,
                             error=type(exc).__name__, delay=round(delay, 4))
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                sleep(delay)


#: The system-wide default: 3 attempts, 100 ms first backoff, 2x growth.
DEFAULT_POLICY = RetryPolicy()
