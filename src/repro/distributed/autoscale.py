"""Local autoscaler: size the worker fleet to the coordinator's queue depth.

The elastic half of the fault-tolerance story: :func:`desired_workers` is
the pure sizing rule (trivially unit-testable — load snapshot in, worker
count out) and :class:`LocalAutoscaler` is the thread that applies it,
spawning localhost worker processes through
:meth:`Coordinator.spawn_local_workers` when work queues up and retiring
them through :meth:`Coordinator.request_retire` when it drains.
Retirement is always polite — the coordinator says Goodbye at a worker's
next between-plans poll, so no lease is ever abandoned — and the
coordinator's :attr:`~Coordinator.elastic` flag is set so an empty fleet
is treated as a transient, not a wreck.

Scaling is deliberately asymmetric: scale-up is immediate (queued cells
are latency), scale-down waits for ``idle_ticks`` consecutive
under-target observations (spawning a Python worker costs an interpreter
start — don't thrash on the gap between two plans).

Usage::

    with Coordinator() as coordinator, LocalAutoscaler(
            coordinator, min_workers=0, max_workers=4) as scaler:
        rows = coordinator.execute(plan, cells, PlanState.pack(dataset, caches))
"""

from __future__ import annotations

import logging
import threading

from repro.distributed.coordinator import Coordinator
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = ["desired_workers", "LocalAutoscaler"]

logger = logging.getLogger(__name__)


def desired_workers(load: dict, *, min_workers: int, max_workers: int,
                    cells_per_worker: int = 4) -> int:
    """The worker count a load snapshot calls for.

    One worker per ``cells_per_worker`` outstanding cells (queued +
    leased; the natural unit is the coordinator's
    :data:`~repro.distributed.coordinator.LEASE_CELLS`), clamped to
    ``[min_workers, max_workers]``.  Pure function of the snapshot
    returned by :meth:`Coordinator.load`.
    """
    if not 0 <= min_workers <= max_workers:
        raise ValueError(f"need 0 <= min_workers <= max_workers, "
                         f"got {min_workers}..{max_workers}")
    if cells_per_worker < 1:
        raise ValueError(f"cells_per_worker must be >= 1, got {cells_per_worker}")
    outstanding = load["outstanding"]
    want = -(-outstanding // cells_per_worker)  # ceil division
    return max(min_workers, min(max_workers, want))


class LocalAutoscaler:
    """Spawn/retire localhost workers from the coordinator's queue depth.

    Parameters
    ----------
    coordinator:
        The :class:`Coordinator` to scale (marked :attr:`~Coordinator.elastic`).
    min_workers / max_workers:
        Fleet size bounds; ``min_workers=0`` lets an idle fleet drain to
        nothing between experiment batches.
    cells_per_worker:
        Target outstanding cells per worker (see :func:`desired_workers`).
    interval:
        Seconds between scaling decisions.
    idle_ticks:
        Consecutive under-target observations before retiring anyone.
    cell_delay / auth_key_file:
        Forwarded to :meth:`Coordinator.spawn_local_workers` —
        *auth_key_file* is how elastically-spawned workers inherit a
        keyed fleet's shared secret.
    """

    def __init__(self, coordinator: Coordinator, *, min_workers: int = 0,
                 max_workers: int = 4, cells_per_worker: int = 4,
                 interval: float = 0.5, idle_ticks: int = 4,
                 cell_delay: float | None = None,
                 auth_key_file=None) -> None:
        # Validate the bounds eagerly (desired_workers re-checks per call).
        desired_workers({"outstanding": 0}, min_workers=min_workers,
                        max_workers=max_workers,
                        cells_per_worker=cells_per_worker)
        if idle_ticks < 1:
            raise ValueError(f"idle_ticks must be >= 1, got {idle_ticks}")
        self.coordinator = coordinator
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.cells_per_worker = cells_per_worker
        self.interval = interval
        self.idle_ticks = idle_ticks
        self.cell_delay = cell_delay
        self.auth_key_file = auth_key_file
        # Registry-backed counters: the ticker thread increments while
        # any other thread reads .stats, so the updates must be atomic
        # (they mutate under the registry lock — the unlocked dict this
        # replaces could tear a snapshot mid-increment).
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        self._counters = {
            "spawned": self.metrics.counter(
                "repro_autoscaler_spawned_total", "Workers spawned on scale-up"),
            "retired": self.metrics.counter(
                "repro_autoscaler_retired_total", "Workers retired on scale-down"),
            "ticks": self.metrics.counter(
                "repro_autoscaler_ticks_total", "Scaling decisions evaluated"),
        }
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._under_target = 0
        coordinator.elastic = True

    @property
    def stats(self) -> dict[str, int]:
        """Compatibility view of the registry counters (atomic snapshot)."""
        return {name: int(counter.value)
                for name, counter in self._counters.items()}

    def start(self) -> LocalAutoscaler:
        """Run the scaling loop on a daemon thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._loop, name="fleet-autoscaler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the scaling loop (spawned workers keep running until retired)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> LocalAutoscaler:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except (OSError, RuntimeError) as exc:
                # Scaling is advisory: a failed spawn must not kill the
                # loop (the next tick retries), and a closing coordinator
                # simply stops mattering.
                logger.warning("autoscaler tick failed: %s", exc)

    def tick(self) -> None:
        """One scaling decision (public so tests can drive it directly)."""
        self._counters["ticks"].inc()
        load = self.coordinator.load()
        # Workers already marked for retirement will leave on their own;
        # count them as gone so ticks don't stack retire requests.
        effective = max(0, load["workers"] - load["retire_pending"])
        want = desired_workers(load, min_workers=self.min_workers,
                               max_workers=self.max_workers,
                               cells_per_worker=self.cells_per_worker)
        if want > effective:
            self._under_target = 0
            n = want - effective
            self.coordinator.spawn_local_workers(
                n, cell_delay=self.cell_delay, auth_key_file=self.auth_key_file)
            self._counters["spawned"].inc(n)
            logger.info("autoscaler: spawned %d worker(s) -> %d "
                        "(outstanding=%d)", n, want, load["outstanding"])
        elif want < effective:
            self._under_target += 1
            if self._under_target >= self.idle_ticks:
                self._under_target = 0
                n = effective - want
                self.coordinator.request_retire(n)
                self._counters["retired"].inc(n)
                logger.info("autoscaler: retiring %d worker(s) -> %d", n, want)
        else:
            self._under_target = 0
