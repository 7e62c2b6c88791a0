"""Persistent warm worker pool, batch shaping and plan-state transport.

The process executor's historical constant factors — worker spawn per
plan, per-batch dataset pickling, per-process plan-state rebuild — are
attacked here structurally, in three coordinated layers:

* :class:`WorkerPool` is a process pool that **outlives a single plan**:
  ``run_all`` and the CLI create one pool for a whole experiment
  sequence, so workers are spawned once and keep their per-plan memos
  (see ``_WORKER_STATE`` in :mod:`repro.experiments.scheduler`) across
  plans.  The pool counts distinct worker PIDs (:attr:`WorkerPool.
  spawn_count`) so tests and CI can assert that a second invocation
  *reused* workers instead of respawning, and accumulates spawn,
  dispatch and compute seconds in :attr:`WorkerPool.stats`.

* :func:`plan_costs` estimates each cell's cost from ``family weight x
  trees x fraction x rows``, a pure function of the plan.
  :func:`shape_batches` feeds those costs to a greedy LPT
  (longest-processing-time-first) shaper over ``jobs x``
  :data:`BATCHES_PER_WORKER` batches: expensive cells are isolated
  early, cheap cells are fused, so every batch carries comparable work
  and stragglers shrink.  A plan's batch shapes depend only on the plan
  and ``jobs``, never on what ran before it.

* :class:`PlanState` is the one way any worker receives a plan's
  inputs: the parent packs the dataset it resolved and the analytical
  caches it warmed into one small value that travels pickled in every
  pool batch's arguments and schema-encoded in the fleet's plan
  assignment.  Workers rebuild the dataset, caches and model factories
  from it once per ``(plan, content digest)``; they open no store and
  warm no cache.

Batch shape never affects results: cells are pure, seeds are derived at
planning time and the merge is keyed, so any partition of a plan's
cells produces bit-identical rows (property-tested in
``tests/test_pool.py``).
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.analytical import AnalyticalPredictionCache
from repro.core.features import PerformanceDataset
from repro.experiments.plan import build_analytical
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.parallel.threadpool import weighted_chunk_indices

__all__ = ["PlanState", "WorkerPool", "plan_costs", "shape_batches"]

#: Batches per pool worker.  Mild oversubscription lets the pool queue
#: absorb cost-estimate error dynamically without paying a dispatch
#: round-trip per cell.
BATCHES_PER_WORKER = 2


def _resolve_jobs(jobs: int) -> int:
    if jobs == -1:
        return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be -1 or >= 1, got {jobs}")
    return jobs


# --------------------------------------------------------------------------- #
# Batch shaping
# --------------------------------------------------------------------------- #
#: Relative per-tree (or per-fit) weight of each estimator family.  Rough
#: priors: the LPT shaper only compares costs within one plan, so only
#: the ratios matter.
_FAMILY_WEIGHTS = {
    "decision_tree": 1.0,
    "extra_trees": 0.7,       # random thresholds: no split search
    "random_forest": 1.6,     # exhaustive split search per node
    "bagged_tree": 1.2,
    "knn": 0.05,              # fit is a memcpy; predict dominates
}
_DEFAULT_WEIGHT = 1.0
#: The hybrid wrapper adds one stacked feature + cached analytical calls.
_HYBRID_FACTOR = 1.15
#: Rough seconds per cost unit, one tree-row of training work.
_SECONDS_PER_UNIT = 1e-5


def plan_costs(plan, cells, n_rows: int) -> dict[tuple, float]:
    """``cell.key -> estimated seconds`` for every cell of *plan* on *n_rows* rows.

    A cell's units are ``family_weight x max(1, n_estimators) x fraction
    x n_rows`` (x :data:`_HYBRID_FACTOR` for a hybrid), proportional to
    the training work of the fitted ensemble (trees x training rows),
    and each costs :data:`_SECONDS_PER_UNIT`.  A pure function of the
    plan: the same plan always gets the same costs, and so the same
    batch shapes.
    """
    factories = {spec.label: spec.factory for spec in plan.series}
    costs: dict[tuple, float] = {}
    for cell in cells:
        factory = factories[cell.factory_key]
        est = factory.estimator
        units = (_FAMILY_WEIGHTS.get(est.name, _DEFAULT_WEIGHT)
                 * max(1, est.n_estimators) * cell.fraction * n_rows)
        if factory.kind == "hybrid":
            units *= _HYBRID_FACTOR
        # The 1-unit floor keeps degenerate cells (tiny fractions) from
        # looking free: every cell pays fixed split/predict overhead
        # regardless of training size.
        costs[cell.key] = max(units, 1.0) * _SECONDS_PER_UNIT
    return costs


def shape_batches(cells: list, costs: dict[tuple, float],
                  n_batches: int) -> list[list]:
    """Partition *cells* into at most *n_batches* cost-balanced batches.

    A thin adapter over :func:`~repro.parallel.threadpool.
    weighted_chunk_indices` (greedy LPT): expensive cells are isolated
    early, cheap cells are fused, and each batch keeps its cells in plan
    order.  Cells whose key is missing from *costs* count as free.

    Batch shape affects throughput only: any partition of a plan's cells
    merges to bit-identical rows (property-tested).
    """
    weights = [costs.get(cell.key, 0.0) for cell in cells]
    return [[cells[i] for i in chunk]
            for chunk in weighted_chunk_indices(weights, n_batches)]


# --------------------------------------------------------------------------- #
# Plan-state transport
# --------------------------------------------------------------------------- #
#: The byte layout of every array a :class:`PlanState` carries.
_F64 = np.dtype("<f8")


def _floats(raw: bytes) -> np.ndarray:
    """A writable native float64 array holding the little-endian *raw* bytes."""
    return np.frombuffer(raw, dtype=_F64).astype(np.float64)


@dataclass(frozen=True)
class PlanState:
    """One plan's resolved dataset and warmed caches, shipped by value.

    The parent packs it from what it has already resolved (see
    :func:`~repro.experiments.scheduler.resolve_data`) and it is
    the only way any worker receives a plan's inputs: pickled in every
    pool batch's arguments, schema-encoded in the fleet's
    :class:`~repro.distributed.protocol.PlanAssignment`.  It holds ``X``,
    ``y`` and each analytical cache's predictions aligned with ``X``'s
    rows, as little-endian float64 bytes.  The largest registry dataset
    has 3,696 rows, so a state is a few hundred KB at most.  Workers
    rebuild the dataset and caches from it once per ``(plan, digest)``
    and open no store.

    It is a registered wire struct, so the constructor checks every
    field's type and every buffer's length: a malformed state fails to
    decode instead of reaching a worker.  It carries the whole dataset:
    a :class:`~repro.core.features.PerformanceDataset` is its name,
    ``X``, ``y`` and feature names, and every row a cell looks up in a
    cache is a row of ``X``.
    """

    dataset_name: str
    feature_names: tuple[str, ...]
    #: The ``(rows, len(feature_names))`` feature matrix, row-major.
    X: bytes = field(repr=False)
    #: The ``rows`` targets.
    y: bytes = field(repr=False)
    #: ``(cache key, predictions for every row of X)`` per analytical cache.
    cache_values: tuple[tuple[str, bytes], ...] = field(repr=False)
    #: SHA-256 of the content: the worker memo's key.
    digest: str

    def __post_init__(self) -> None:
        for name in ("dataset_name", "digest"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"PlanState.{name} must be a str")
        if not (isinstance(self.feature_names, tuple)
                and all(isinstance(name, str) for name in self.feature_names)):
            raise TypeError("PlanState.feature_names must be a tuple of str")
        if not (isinstance(self.cache_values, tuple) and all(
                isinstance(entry, tuple) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], bytes)
                for entry in self.cache_values)):
            raise TypeError(
                "PlanState.cache_values must be a tuple of (str, bytes) pairs")
        if not (isinstance(self.X, bytes) and isinstance(self.y, bytes)):
            raise TypeError("PlanState.X and PlanState.y must be bytes")
        if len(self.y) % _F64.itemsize:
            raise ValueError(f"PlanState.y holds {len(self.y)} bytes, "
                             f"not a whole number of float64 values")
        if len(self.X) != len(self.y) * len(self.feature_names):
            raise ValueError(
                f"PlanState.X holds {len(self.X)} bytes, expected "
                f"{self.n_rows} rows x {len(self.feature_names)} features")
        for key, values in self.cache_values:
            if len(values) != len(self.y):
                raise ValueError(
                    f"PlanState cache {key!r} holds {len(values)} bytes, "
                    f"expected one float64 per row ({len(self.y)})")

    @property
    def n_rows(self) -> int:
        """Rows of the dataset."""
        return len(self.y) // _F64.itemsize

    @classmethod
    def pack(cls, dataset: PerformanceDataset,
             caches: dict[str, AnalyticalPredictionCache]) -> PlanState:
        """The state of *dataset* and its warmed *caches*."""
        X = np.ascontiguousarray(dataset.X, dtype=_F64)
        cache_values = tuple((key, np.asarray(cache.predict(X), dtype=_F64).tobytes())
                             for key, cache in caches.items())
        names = tuple(dataset.feature_names)
        raw_X, raw_y = X.tobytes(), np.asarray(dataset.y, dtype=_F64).tobytes()
        digest = hashlib.sha256(
            repr((dataset.name, names, [key for key, _ in cache_values])).encode())
        for data in (raw_X, raw_y, *(values for _, values in cache_values)):
            digest.update(data)
        return cls(dataset.name, names, raw_X, raw_y, cache_values, digest.hexdigest())

    def unpack(self) -> tuple[PerformanceDataset, dict[str, AnalyticalPredictionCache]]:
        """The dataset and caches, rebuilt through the store's own load path."""
        X = _floats(self.X).reshape(self.n_rows, len(self.feature_names))
        dataset = PerformanceDataset(name=self.dataset_name, X=X, y=_floats(self.y),
                                     feature_names=list(self.feature_names))
        caches = {
            key: AnalyticalPredictionCache(build_analytical(key),
                                           dataset.feature_names).load_rows(X, _floats(values))
            for key, values in self.cache_values
        }
        return dataset, caches


# --------------------------------------------------------------------------- #
# The persistent pool
# --------------------------------------------------------------------------- #
def _prime_worker(delay: float) -> int:
    """Spawn-time warm-up: pay the heavy imports before the first plan.

    The short sleep keeps the priming tasks from all landing on the
    first worker, so every pool process both exists and is warm when the
    first real batch arrives.
    """
    import repro.experiments.scheduler  # noqa: F401  (imports the eval stack)

    time.sleep(delay)
    return os.getpid()


def _timed_call(fn, args: tuple):
    """Run ``fn(*args)`` in a worker, reporting pid and monotonic span.

    ``time.perf_counter`` is CLOCK_MONOTONIC-backed and system-wide on
    Linux, so the parent can subtract its submit timestamp from the
    worker's start timestamp to measure dispatch latency (queueing +
    argument pickling) separately from compute.
    """
    start = time.perf_counter()
    result = fn(*args)
    return os.getpid(), start, time.perf_counter() - start, result


class WorkerPool:
    """A warm process pool that outlives a single ``run_plan`` call.

    Parameters
    ----------
    jobs:
        Worker processes (``-1`` = CPU count).
    prime:
        Spawn all workers eagerly and pay the package imports up front
        (default).  Disable for tests that only inspect bookkeeping.

    Notes
    -----
    One pool serves a whole experiment sequence: workers keep their
    per-plan state memos (dataset, warmed caches, factories) across
    plans, so consecutive plans — or repeated invocations of the same
    plan — skip the per-process rebuild entirely.  :attr:`spawn_count`
    counts distinct worker PIDs ever observed; a warm second invocation
    must not grow it (asserted by the CI ``parallel-smoke`` job).

    :attr:`stats` accumulates the pool's own phases, which no span
    covers: ``spawn_seconds`` (pool creation + priming),
    ``dispatch_seconds`` (submit-to-worker-start latency: queueing and
    argument pickling), ``compute_seconds`` (in-worker evaluation) and
    ``batches``.  The plan span times the merge.
    """

    #: The ``.stats`` keys: three phases in seconds, then a count.
    _STATS_KEYS = ("spawn_seconds", "dispatch_seconds", "compute_seconds",
                   "batches")

    def __init__(self, jobs: int = -1, *, prime: bool = True) -> None:
        self.jobs = _resolve_jobs(jobs)
        # Registry-backed phase counters: run_batches mutates them from
        # whichever thread drives the plan while monitors read .stats —
        # every increment happens under the registry lock, so a snapshot
        # taken mid-increment can never tear (regression-tested in
        # tests/test_obs.py; the bare dict this replaces could).
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        self._counters = {
            key: self.metrics.counter(
                f"repro_pool_{key}" if key.endswith("_seconds")
                else f"repro_pool_{key}_total",
                f"Worker pool {key.replace('_', ' ')}")
            for key in self._STATS_KEYS
        }
        self._pids: set[int] = set()
        self._closed = False
        t0 = time.perf_counter()
        self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        if prime:
            delay = 0.02 if self.jobs > 1 else 0.0
            futures = [self._executor.submit(_prime_worker, delay)
                       for _ in range(self.jobs)]
            self._pids.update(f.result() for f in futures)
        self._counters["spawn_seconds"].inc(time.perf_counter() - t0)

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> dict[str, float]:
        """Compatibility view of the registry counters (atomic snapshot).

        Seconds stay floats and ``batches`` an int — the shape the
        benchmark entries and tests always consumed.
        """
        out = {key: counter.value for key, counter in self._counters.items()}
        out["batches"] = int(out["batches"])
        return out

    @property
    def spawn_count(self) -> int:
        """Distinct worker processes observed over the pool's lifetime."""
        return len(self._pids)

    @property
    def worker_pids(self) -> frozenset:
        """The distinct worker PIDs behind :attr:`spawn_count`."""
        return frozenset(self._pids)

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def run_batches(self, fn, batch_args: list[tuple]) -> list:
        """Run ``fn(*args)`` for every argument tuple; results in order.

        Each call is wrapped to report the worker's PID (spawn counting)
        and its monotonic start/duration (phase accounting).
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        submit_times: list[float] = []
        futures = []
        t0 = time.perf_counter()
        for args in batch_args:
            submit_times.append(time.perf_counter())
            futures.append(self._executor.submit(_timed_call, fn, args))
        self._counters["dispatch_seconds"].inc(time.perf_counter() - t0)
        out = []
        for submitted, future in zip(submit_times, futures, strict=True):
            pid, started, seconds, result = future.result()
            self._pids.add(pid)
            self._counters["dispatch_seconds"].inc(max(0.0, started - submitted))
            self._counters["compute_seconds"].inc(seconds)
            out.append(result)
        self._counters["batches"].inc(len(batch_args))
        return out

    def probe(self, fn, *args):
        """Run ``fn(*args)`` on one (arbitrary) pool worker and return it.

        A testing/monitoring hook — e.g. reading the worker-state memo's
        eviction counter from inside a live worker.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        pid, _, _, result = self._executor.submit(_timed_call, fn, args).result()
        self._pids.add(pid)
        return result

    def close(self) -> None:
        """Shut down the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
