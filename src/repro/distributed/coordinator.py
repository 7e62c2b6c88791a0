"""TCP coordinator: leases cell batches to a worker fleet, requeues on death.

:class:`Coordinator` owns one listening socket for the lifetime of a run
(one CLI invocation, one test); each :meth:`execute` call activates one
plan at a time, so a fleet of long-lived workers serves a whole sequence
of experiments over the same connections.  Per-connection reader threads
handle the request/reply protocol of :mod:`repro.distributed.protocol`;
:meth:`execute` blocks in a condition-variable loop until every cell of
the plan has a result (or a cell exhausts its retry budget).

Fault tolerance
---------------
Work is handed out in small *leased* batches.  A lease is released when
the worker returns its results; if the worker's connection drops (EOF,
reset — a ``SIGKILL``'d process closes its sockets immediately) or its
heartbeat goes silent for longer than ``heartbeat_timeout``, every
unfinished cell of the lease is requeued at the front of the queue.  Each
cell tolerates ``max_retries`` requeues; one cell exceeding the budget
fails the whole plan with a hard error (a cell is deterministic, so
repeated failure means the fleet — not the data — is broken).  A worker
wrongly presumed dead may still return results later; completed-cell
bookkeeping dedupes them, and because cells are pure either copy of a
result is bit-identical.

Straggler speculation rides on the same dedupe: once the queue drains,
a lease held far longer than the fleet's typical lease duration (past
``speculation_factor`` × the ``speculation_percentile`` of completed
lease times) is *speculatively re-leased* — its unfinished cells are
duplicated to the queue for a healthy worker to race, without charging
the cell's retry budget.  Whichever copy lands first wins; the loser is
counted as a duplicate and discarded.  This bounds plan latency by the
healthy fleet, not by one degraded host.

Elasticity hooks: :meth:`load` exposes queue depth for an autoscaler
(:mod:`repro.distributed.autoscale`), :meth:`request_retire` marks
workers for a polite Goodbye at their next between-plans poll, and
setting :attr:`elastic` suppresses the all-local-workers-exited fail-fast
(under an autoscaler an empty fleet is a transient, not a wreck).

Store bootstrap
---------------
When the parent store is shareable (``file://`` locator on a shared
filesystem, ``http://`` object store), its locator is advertised in the
:class:`PlanAssignment` manifest and cold workers read the dataset and
warmed caches **directly from shared storage** — fleet cold-start no
longer serializes every blob through this one socket.  The coordinator
still snapshots the resolved dataset and every warmed analytical cache
as raw ``.npz`` blobs (read from the parent store when present, encoded
in memory otherwise) and serves them as the relay fallback to workers
that have no advertised store or cannot reach it.
"""

from __future__ import annotations

import hashlib
import hmac
import io
import os
import socket
import subprocess
import sys
import threading
import time
import uuid
from collections import deque
from pathlib import Path

from repro.core.evaluation import CellResult
from repro.datasets.backends import IntegrityError
from repro.datasets.store import _FORMAT_VERSION, DatasetStore, _simulator_versions
from repro.distributed import protocol
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    Ack,
    Batch,
    CacheBlob,
    ConnectionClosed,
    DatasetBlob,
    FetchCache,
    FetchDataset,
    GetBatch,
    GetPlan,
    Goodbye,
    Heartbeat,
    Hello,
    Idle,
    NoPlan,
    PlanAssignment,
    PlanDone,
    Reject,
    Results,
    Welcome,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry, MetricsSnapshot
from repro.obs.tracing import TRACER

__all__ = ["Coordinator"]

#: ``batch_size="auto"``: a lease targets the predicted cost of this many
#: *average* cells of the plan, so cheap cells fuse into big leases and a
#: cell costlier than the whole budget is leased alone.
_AUTO_LEASE_TARGET_CELLS = 4
#: Hard cap on cells per ``"auto"`` lease, bounding both the requeue cost
#: of a dead worker and the damage of a bad cost estimate.
_AUTO_LEASE_MAX_CELLS = 16


def _sever_socket(sock: socket.socket) -> None:
    """Shut *sock* down, waking any thread blocked on it, and close it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _WorkerInfo:
    """Coordinator-side record of one connected worker."""

    def __init__(self, conn, addr, worker_id: str, pid: int, now: float) -> None:
        self.conn = conn
        self.addr = addr
        self.worker_id = worker_id
        self.pid = pid
        self.last_seen = now
        self.lease: list = []
        self.lease_plan_id: str | None = None
        self.lease_since = 0.0
        self.speculated = False  # this lease was already re-leased once


class _Job:
    """One plan's in-flight state: queue, completed results, retry counts."""

    def __init__(self, plan, plan_id: str, cells: list,
                 dataset_blob: bytes, cache_blobs: dict[str, bytes],
                 store_ok: bool, store_url: str | None = None,
                 auto_leases: bool = False) -> None:
        self.plan = plan
        self.plan_id = plan_id
        self.store_ok = store_ok
        self.store_url = store_url
        self.cells = cells
        self.lease_budget: float | None = None
        if auto_leases:
            # Cost-aware leasing: dispatch expensive cells first (LPT-style
            # makespan) against a budget of N average cells per lease.
            # Any lease shape is safe — requeue and dedupe key on the
            # cell, and results merge in plan order regardless.
            hints = [max(cell.cost_hint, 0.0) for cell in cells]
            mean = sum(hints) / len(hints) if hints else 0.0
            self.lease_budget = _AUTO_LEASE_TARGET_CELLS * mean
            order = sorted(range(len(cells)), key=lambda i: (-hints[i], i))
            self.queue = deque(cells[i] for i in order)
        else:
            self.queue = deque(cells)
        self.completed: dict[tuple, CellResult] = {}
        self.retries: dict[tuple, int] = {}
        self.dataset_blob = dataset_blob
        self.cache_blobs = cache_blobs
        # Relay-blob content digests: workers verify what arrives over the
        # socket against these before deserializing.
        self.dataset_sha256 = hashlib.sha256(dataset_blob).hexdigest()
        self.cache_sha256s = {key: hashlib.sha256(blob).hexdigest()
                              for key, blob in cache_blobs.items()}
        self.lease_durations: list[float] = []  # completed leases, seconds
        self.failure: str | None = None
        #: Plan span context shipped in every Batch (None = tracing off).
        self.trace = None

    @property
    def finished(self) -> bool:
        return len(self.completed) == len(self.cells)


class Coordinator:
    """Serve :class:`ExperimentPlan` cells to a TCP worker fleet.

    Parameters
    ----------
    bind:
        ``(host, port)`` listen address; the default binds an ephemeral
        loopback port (see :attr:`address`).  Bind a routable interface to
        accept workers from other hosts — pass *auth_key* too, so the
        fleet is HMAC-authenticated instead of open to anyone who can
        reach the port (the ``--bind`` CLI refuses a non-loopback bind
        without ``--auth-key-file`` unless ``--insecure``).
    heartbeat_timeout:
        Seconds of silence after which a worker is presumed dead and its
        leased cells are requeued.  Workers heartbeat every
        ``heartbeat_interval`` (default 1s) even while computing, so the
        timeout trades failover latency against false positives only.
    batch_size:
        Cells per lease.  Small batches bound both the requeue cost of a
        dead worker and fleet idle time at the tail of a plan.
        ``"auto"`` makes leases cost-aware instead of fixed-size: cells
        are dispatched expensive-first and packed against a budget of
        :data:`_AUTO_LEASE_TARGET_CELLS` average cells (per the
        cells' :attr:`~repro.core.evaluation.EvalCell.cost_hint`), so
        many cheap cells fuse into one lease while a cell costlier than
        the whole budget is leased alone — stragglers shrink without
        giving up round-trip amortization.
    max_retries:
        Requeue budget per cell; exceeding it fails the plan.
    speculation:
        Enable straggler re-lease.  Once the queue is empty, a lease
        outstanding longer than ``max(speculation_min_delay,
        speculation_factor × P[speculation_percentile] of completed lease
        durations)`` is duplicated to the queue (once per lease) so a
        healthy worker races the straggler; dedupe-by-key keeps the
        duplicate harmless and the cell's retry budget is not charged.
    auth_key:
        The fleet's shared secret (bytes) or ``None`` for an open fleet.
        With a key, a HELLO must carry a valid challenge proof (wrong or
        missing keys are :class:`~repro.distributed.protocol.Reject`\\ ed
        and counted in ``repro_auth_failures_total``), the WELCOME
        proves the coordinator's key back to the worker, and every
        post-handshake frame is HMAC-signed with a per-connection
        session key and sequence number (tamper + replay protection).
    """

    def __init__(self, bind: tuple[str, int] = ("127.0.0.1", 0), *,
                 heartbeat_timeout: float = 15.0, batch_size: int | str = 4,
                 max_retries: int = 3, speculation: bool = True,
                 speculation_factor: float = 3.0,
                 speculation_percentile: float = 0.75,
                 speculation_min_delay: float = 2.0,
                 auth_key: bytes | None = None) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        if batch_size != "auto" and (
                not isinstance(batch_size, int) or isinstance(batch_size, bool)
                or batch_size < 1):
            raise ValueError(
                f"batch_size must be 'auto' or an integer >= 1, got {batch_size!r}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if speculation_factor < 1.0:
            raise ValueError(
                f"speculation_factor must be >= 1, got {speculation_factor}")
        if not 0.0 <= speculation_percentile <= 1.0:
            raise ValueError("speculation_percentile must be in [0, 1], "
                             f"got {speculation_percentile}")
        self.heartbeat_timeout = heartbeat_timeout
        self.batch_size = batch_size
        self.max_retries = max_retries
        self.speculation = speculation
        self.speculation_factor = speculation_factor
        self.speculation_percentile = speculation_percentile
        self.speculation_min_delay = speculation_min_delay
        #: The fleet's shared secret: with a key, HELLO handshakes must
        #: carry a valid challenge proof and every post-handshake frame
        #: is HMAC-signed under a per-connection session key.
        self.auth_key = auth_key
        #: An autoscaler may still spawn workers: suppress the
        #: all-local-workers-exited fail-fast while True.
        self.elastic = False
        self.coordinator_id = uuid.uuid4().hex[:12]
        # Registry-backed counters (the old ``stats`` dict is now a
        # property view): results_received doubles as the fleet-facing
        # ``repro_cells_completed_total`` — the metric the status port's
        # /metrics endpoint is judged on.
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        _counter_specs = {
            "results_received": (
                "repro_cells_completed_total",
                "Distinct cell results recorded (duplicates excluded)"),
            "duplicate_results": (
                "repro_fleet_duplicate_results_total",
                "Results discarded as duplicates (speculation losers)"),
            "requeued_cells": (
                "repro_fleet_requeued_cells_total",
                "Cells requeued after a worker death"),
            "workers_failed": (
                "repro_fleet_workers_failed_total",
                "Workers presumed dead (connection loss or silent heartbeat)"),
            "rejected_handshakes": (
                "repro_fleet_rejected_handshakes_total",
                "HELLO handshakes refused for a version or auth mismatch"),
            "datasets_served": (
                "repro_fleet_datasets_served_total",
                "Dataset blobs relayed over the coordinator socket"),
            "caches_served": (
                "repro_fleet_caches_served_total",
                "Cache blobs relayed over the coordinator socket"),
            "speculative_releases": (
                "repro_fleet_speculative_releases_total",
                "Straggler leases speculatively duplicated"),
            "workers_retired": (
                "repro_fleet_workers_retired_total",
                "Workers politely retired between plans"),
        }
        self._counters = {key: self.metrics.counter(name, help)
                          for key, (name, help) in _counter_specs.items()}
        # The cross-server auth-failure convention: one labeled counter
        # name everywhere, so one alert rule covers the whole stack.
        self._auth_failures = self.metrics.counter(
            "repro_auth_failures_total",
            "Requests rejected for a missing or invalid credential",
            labelnames=("server",)).labels(server="coordinator")
        self._workers_gauge = self.metrics.gauge(
            "repro_fleet_workers", "Live worker connections")
        #: Latest per-worker counter snapshot, from Heartbeat/Results
        #: frames (v4); survives the worker so completed work stays
        #: visible in the fleet aggregate.
        self._worker_metrics: dict[str, MetricsSnapshot] = {}
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._workers: dict[str, _WorkerInfo] = {}
        self._job: _Job | None = None
        self._retire_pending = 0
        self._closing = False
        self._procs: list[subprocess.Popen] = []
        self._threads: list[threading.Thread] = []
        #: Every accepted connection, registered worker or not, so that
        #: close() can sever the ones that never sent HELLO.
        self._conns: set[socket.socket] = set()

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(bind)
        self._listener.listen(64)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True)
        self._accept_thread.start()

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` the coordinator is listening on."""
        return self._listener.getsockname()[:2]

    @property
    def stats(self) -> dict[str, int]:
        """Compatibility view of the registry counters (atomic snapshot)."""
        return {key: int(counter.value)
                for key, counter in self._counters.items()}

    @property
    def auth_failures(self) -> int:
        """Frames/handshakes rejected for a missing or invalid credential."""
        return int(self._auth_failures.value)

    def fleet_snapshot(self) -> MetricsSnapshot:
        """The fleet-wide metrics view the status port's ``/metrics`` serves.

        The coordinator's own registry, plus every worker's last shipped
        snapshot twice: once labeled ``worker="<id>"`` (per-worker
        series) and once summed into ``worker="fleet"`` (the aggregate).
        Worker snapshots outlive their connections, so completed work
        never vanishes from the aggregate when a worker retires.
        """
        with self._lock:
            worker_snaps = dict(self._worker_metrics)
            self._workers_gauge.set(len(self._workers))
        snap = self.metrics.snapshot()
        aggregate: MetricsSnapshot | None = None
        for worker_id in sorted(worker_snaps):
            worker_snap = worker_snaps[worker_id]
            snap = snap.merge(worker_snap.with_labels(worker=worker_id))
            aggregate = (worker_snap if aggregate is None
                         else aggregate.merge(worker_snap))
        if aggregate is not None:
            snap = snap.merge(aggregate.with_labels(worker="fleet"))
        return snap

    def health(self) -> dict:
        """The ``/healthz`` JSON document: liveness plus a load snapshot."""
        with self._lock:
            closing = self._closing
        return {"status": "closing" if closing else "ok",
                "coordinator_id": self.coordinator_id,
                "protocol_version": PROTOCOL_VERSION,
                **self.load()}

    def serve_status(self, address: tuple[str, int] = ("127.0.0.1", 0), *,
                     auth: bytes | None = None):
        """Start the read-only ``/metrics`` + ``/healthz`` status sidecar.

        Returns the started :class:`~repro.obs.http.StatusServer` (the
        caller owns its lifetime); the CLI mounts it via
        ``--status-port``.  With *auth* key bytes, scrapes must sign
        requests (``/healthz`` stays open).
        """
        from repro.obs.http import StatusServer

        return StatusServer(metrics=self.fleet_snapshot, health=self.health,
                            address=address, auth=auth).start()

    def __enter__(self) -> Coordinator:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn_local_workers(self, n: int, *, store_dir=None, store_url=None,
                            cell_delay: float | None = None,
                            auth_key_file=None) -> list[subprocess.Popen]:
        """Spawn *n* localhost worker processes connected to this coordinator.

        The single-command convenience mode: ``--executor remote --jobs N``
        without an external fleet.  The workers inherit the environment
        plus a ``PYTHONPATH`` entry for this package, so they import the
        same code whether it is installed or run from a source tree.
        *store_dir* (a directory) or *store_url* (a ``file://`` /
        ``http://`` store locator) configures their persistent store;
        *auth_key_file* hands them the fleet's shared secret (required
        to handshake with a keyed coordinator — the key itself never
        appears on a command line, only its path).
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if store_dir is not None and store_url is not None:
            raise ValueError("pass store_dir or store_url, not both")
        host, port = self.address
        env = os.environ.copy()
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
        cmd = [sys.executable, "-m", "repro.distributed.worker",
               "--connect", f"{host}:{port}"]
        if store_dir is not None:
            cmd += ["--store-dir", str(store_dir)]
        if store_url is not None:
            cmd += ["--store-url", str(store_url)]
        if cell_delay is not None:
            cmd += ["--cell-delay", str(cell_delay)]
        if auth_key_file is not None:
            cmd += ["--auth-key-file", str(auth_key_file)]
        procs = [subprocess.Popen(cmd, env=env) for _ in range(n)]
        with self._lock:
            self._procs.extend(procs)
        return procs

    def worker_snapshot(self) -> list[dict]:
        """Connected workers and their current lease sizes (monitoring/tests)."""
        with self._lock:
            return [
                {"worker_id": info.worker_id, "pid": info.pid,
                 "addr": info.addr, "lease": len(info.lease)}
                for info in self._workers.values()
            ]

    def load(self) -> dict:
        """A point-in-time load snapshot: the autoscaler's decision input.

        ``queue_depth`` is cells waiting for a lease, ``leased`` cells out
        with workers, ``outstanding`` their sum (work not yet completed),
        ``workers`` live connections.  All zeros between plans.
        """
        with self._lock:
            job = self._job
            queue_depth = leased = 0
            if job is not None and job.failure is None:
                queue_depth = sum(1 for cell in job.queue
                                  if cell.key not in job.completed)
                leased = sum(
                    len(info.lease) for info in self._workers.values()
                    if info.lease_plan_id == job.plan_id)
            return {
                "queue_depth": queue_depth,
                "leased": leased,
                "outstanding": queue_depth + leased,
                "workers": len(self._workers),
                "retire_pending": self._retire_pending,
            }

    def request_retire(self, n: int = 1) -> None:
        """Mark *n* workers for a polite Goodbye at their next idle poll.

        Retirement only happens between plans (on a :class:`GetPlan` with
        no active work for the worker), so no lease is abandoned.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        with self._lock:
            self._retire_pending += n

    def execute(self, plan, cells: list, dataset, caches: dict, *,
                store: DatasetStore | None = None,
                dataset_override: bool = False) -> list[CellResult]:
        """Run every cell of *plan* on the fleet; results in plan order.

        *dataset* and *caches* are the parent-resolved plan state (the
        same objects the other executors use); *store*, when given, is the
        parent's persistent store whose on-disk artifacts back the
        bootstrap blobs (otherwise the blobs are encoded in memory).

        *dataset_override* marks *dataset* as an explicit content
        override (the test/notebook path): its bytes have no registered
        fingerprint, so the plan id is extended with a content digest
        (distinct worker memo entry) and workers are told to bypass their
        persistent stores and always fetch the coordinator's blobs.

        When *store* has a shareable locator (``file://`` on a shared
        filesystem, ``http://`` object store) the locator is advertised
        in the plan manifest and workers bootstrap missing artifacts
        directly from it; the coordinator-relay blobs below stay as the
        fallback for workers that cannot reach the advertised store.
        """
        plan_id = plan.fingerprint
        if dataset_override:
            digest = hashlib.sha256(
                dataset.X.tobytes() + dataset.y.tobytes()).hexdigest()[:16]
            plan_id = f"{plan_id}-override-{digest}"
            store = None
        job = _Job(plan, plan_id, cells,
                   self._dataset_blob(plan, dataset, store),
                   self._cache_blobs(plan, caches, store),
                   store_ok=not dataset_override,
                   store_url=None if store is None else store.locator,
                   auto_leases=self.batch_size == "auto")
        # Under an active trace collection the caller's current span (the
        # scheduler's plan span) becomes the parent of every worker-side
        # batch/cell span; None keeps the fleet span-free.
        if TRACER.enabled:
            job.trace = TRACER.current_context()
        with self._cond:
            if self._closing:
                raise RuntimeError("coordinator is closed")
            if self._job is not None:
                raise RuntimeError("coordinator is already executing a plan")
            self._job = job
            self._cond.notify_all()
        try:
            with self._cond:
                while job.failure is None and not job.finished:
                    self._expire_silent_workers()
                    self._release_stragglers(job)
                    self._check_fleet_alive(job)
                    self._cond.wait(timeout=0.1)
        finally:
            with self._cond:
                self._job = None
                self._cond.notify_all()
        if job.failure is not None:
            raise RuntimeError(f"plan {plan.name!r} failed on the fleet: {job.failure}")
        return [job.completed[cell.key] for cell in cells]

    def close(self, *, timeout: float = 10.0) -> None:
        """Shut the fleet down: Goodbye to polling workers, reap local ones."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
            procs = list(self._procs)
        deadline = time.monotonic() + timeout
        # Local workers poll GetPlan between plans and receive Goodbye on
        # the next poll; give them the grace window, then escalate.
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        # close() alone does not wake a thread blocked in accept();
        # shutdown() does.  Once the accept thread is gone no connection
        # can be added behind the sever below.
        _sever_socket(self._listener)
        self._accept_thread.join(timeout=2.0)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            _sever_socket(conn)
        for thread in list(self._threads):
            thread.join(timeout=2.0)

    # ------------------------------------------------------------------ #
    # Blob snapshots
    # ------------------------------------------------------------------ #
    @staticmethod
    def _dataset_blob(plan, dataset, store: DatasetStore | None) -> bytes:
        if store is not None and store.has_dataset(plan.dataset):
            try:
                return store.dataset_bytes(plan.dataset)
            except IntegrityError:
                # The stored blob is corrupt; the in-memory dataset is the
                # source of truth, so re-encode instead of relaying garbage.
                pass
        return DatasetStore.encode_dataset(dataset)

    @staticmethod
    def _cache_blobs(plan, caches: dict, store: DatasetStore | None) -> dict[str, bytes]:
        blobs: dict[str, bytes] = {}
        for key, cache in caches.items():
            if store is not None and store.has_cache(key, plan.dataset):
                try:
                    blobs[key] = store.cache_bytes(key, plan.dataset)
                    continue
                except IntegrityError:
                    pass  # fall through: encode from the in-memory cache
            buf = io.BytesIO()
            cache.save(buf)
            blobs[key] = buf.getvalue()
        return blobs

    # ------------------------------------------------------------------ #
    # Fleet liveness
    # ------------------------------------------------------------------ #
    def _expire_silent_workers(self) -> None:
        """Requeue and sever workers whose heartbeat went silent (lock held)."""
        now = time.monotonic()
        for info in list(self._workers.values()):
            if now - info.last_seen > self.heartbeat_timeout:
                self._workers.pop(info.worker_id, None)
                self._requeue_lease(info, reason="heartbeat timeout")
                self._sever(info)

    def _check_fleet_alive(self, job: _Job) -> None:
        """Fail fast when a purely-local fleet has no survivors (lock held).

        An external fleet (workers we did not spawn) may legitimately have
        nobody connected yet, so the check only fires when every spawned
        local worker has exited and no connection remains.  Under an
        autoscaler (:attr:`elastic`) an empty fleet is a transient — the
        next scaling tick will spawn replacements — so the check is off.
        """
        if self.elastic or self._workers or not self._procs:
            return
        if all(proc.poll() is not None for proc in self._procs):
            job.failure = ("all local fleet workers exited "
                           f"({len(self._procs)} spawned, none connected)")
            self._cond.notify_all()

    def _release_stragglers(self, job: _Job) -> None:
        """Speculatively duplicate overdue leases to the queue (lock held).

        Only fires when the queue has drained (otherwise idle workers have
        plenty to race already) and at least one lease has completed (the
        percentile needs a sample).  Each lease is speculated at most
        once, and the duplicated cells do not charge the retry budget —
        the straggler is presumed slow, not broken.
        """
        if not self.speculation or job.queue or not job.lease_durations:
            return
        durations = sorted(job.lease_durations)
        index = int(self.speculation_percentile * (len(durations) - 1))
        deadline = max(self.speculation_min_delay,
                       self.speculation_factor * durations[index])
        now = time.monotonic()
        for info in self._workers.values():
            if (not info.lease or info.lease_plan_id != job.plan_id
                    or info.speculated or now - info.lease_since <= deadline):
                continue
            info.speculated = True
            pending = [cell for cell in info.lease
                       if cell.key not in job.completed]
            for cell in reversed(pending):
                job.queue.appendleft(cell)
            if pending:
                self._counters["speculative_releases"].inc()
                self._cond.notify_all()

    @staticmethod
    def _sever(info: _WorkerInfo) -> None:
        _sever_socket(info.conn)

    def _requeue_lease(self, info: _WorkerInfo, *, reason: str) -> None:
        """Return a dead worker's unfinished leased cells to the queue (lock held)."""
        job = self._job
        lease, info.lease = info.lease, []
        if job is None or not lease or info.lease_plan_id != job.plan_id:
            return
        self._counters["workers_failed"].inc()
        for cell in reversed(lease):
            if cell.key in job.completed:
                continue
            attempts = job.retries.get(cell.key, 0) + 1
            job.retries[cell.key] = attempts
            if attempts > self.max_retries:
                job.failure = (
                    f"cell {cell.key} requeued {attempts} times "
                    f"(> max_retries={self.max_retries}); last worker "
                    f"{info.worker_id} at {info.addr} died: {reason}")
            else:
                job.queue.appendleft(cell)
                self._counters["requeued_cells"].inc()
        self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, addr),
                name=f"fleet-conn-{addr[0]}:{addr[1]}", daemon=True)
            with self._lock:
                self._conns.add(conn)
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn, addr) -> None:
        info: _WorkerInfo | None = None
        auth = (protocol.FrameAuth(self.auth_key, role="coordinator")
                if self.auth_key is not None else None)
        try:
            while True:
                # Until HELLO succeeds the peer is unauthenticated: cap
                # what it can make this thread buffer.
                message = protocol.recv_message(
                    conn, auth, protocol.MAX_FRAME_BYTES if info is not None
                    else protocol.MAX_HELLO_BYTES)
                now = time.monotonic()
                if isinstance(message, Hello):
                    info = self._handshake(conn, addr, message, now, auth)
                    if info is None:
                        return
                    continue
                if info is None:
                    protocol.send_message(
                        conn, Reject("handshake required before any other message"))
                    return
                with self._lock:
                    info.last_seen = now
                if isinstance(message, Heartbeat):
                    if message.metrics is not None:
                        with self._lock:
                            self._worker_metrics[info.worker_id] = message.metrics
                    continue
                protocol.send_message(conn, self._reply(info, message),
                                      None, auth)
        except protocol.AuthError:
            # A frame that failed tag verification: tampered, replayed,
            # or signed under a different key.  Count it — silent auth
            # rejections cost operators hours — and sever; nothing after
            # an unauthentic frame can be trusted.
            self._auth_failures.inc()
        except (ConnectionClosed, ConnectionError, OSError, protocol.ProtocolError):
            # A corrupted frame (CRC mismatch) severs the connection; the
            # worker's reconnect loop re-handshakes on a clean stream.
            pass
        finally:
            with self._cond:
                if info is not None:
                    # Pop only if the registry still maps the id to *this*
                    # connection — a reconnect may have replaced it.
                    if self._workers.get(info.worker_id) is info:
                        self._workers.pop(info.worker_id)
                    self._requeue_lease(info, reason="connection lost")
                    self._cond.notify_all()
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._conns.discard(conn)
                self._threads = [t for t in self._threads
                                 if t is not threading.current_thread()]

    def _handshake(self, conn, addr, hello: Hello, now: float,
                   auth=None) -> _WorkerInfo | None:
        reason = None
        auth_failed = False
        if hello.protocol_version != PROTOCOL_VERSION:
            reason = (f"protocol version mismatch: worker speaks "
                      f"{hello.protocol_version}, coordinator {PROTOCOL_VERSION}")
        elif hello.store_format_version != _FORMAT_VERSION:
            reason = (f"store fingerprint format mismatch: worker uses "
                      f"version {hello.store_format_version}, coordinator "
                      f"{_FORMAT_VERSION} — artifacts would not be shareable")
        elif hello.simulator_versions != _simulator_versions():
            # Fingerprints fold in the simulator versions: a skewed worker
            # would store the coordinator's blobs under keys its own local
            # runs compute differently, silently serving stale data later.
            reason = (f"simulator version mismatch: worker has "
                      f"{hello.simulator_versions!r}, coordinator "
                      f"{_simulator_versions()!r} — fingerprints would not agree")
        elif self.auth_key is not None:
            # Keyed coordinator: the HELLO must prove knowledge of the
            # shared key over the worker's own challenge nonce.  The
            # Reject travels unsigned (no session exists yet), which is
            # safe: it grants nothing, and the worker needs the reason.
            if not hello.auth_proof:
                auth_failed = True
                reason = ("authentication required: this coordinator is "
                          "keyed; start the worker with the same "
                          "--auth-key-file")
            elif not hmac.compare_digest(hello.auth_proof, protocol.hello_proof(
                    self.auth_key, hello.auth_nonce, hello.worker_id)):
                auth_failed = True
                reason = ("authentication failed: worker credential does "
                          "not match this coordinator's key")
        elif hello.auth_proof:
            # The worker expects an authenticated fleet; handing it an
            # unauthenticated session would silently downgrade it.
            reason = ("worker presented credentials but this coordinator "
                      "is unauthenticated; start it with --auth-key-file")
        if reason is not None:
            self._counters["rejected_handshakes"].inc()
            if auth_failed:
                self._auth_failures.inc()
            protocol.send_message(conn, Reject(reason))
            return None
        info = _WorkerInfo(conn, addr, hello.worker_id, hello.pid, now)
        with self._cond:
            # A worker restarted with a stable --worker-id may reconnect
            # while its old connection lingers: requeue the old lease and
            # sever it, so the id maps to exactly one live connection.
            old = self._workers.get(hello.worker_id)
            if old is not None:
                self._requeue_lease(old, reason="worker id reconnected")
                self._sever(old)
            self._workers[hello.worker_id] = info
            self._cond.notify_all()
        if self.auth_key is not None:
            # Answer the worker's challenge and issue our own; both
            # nonces then derive the per-connection session key.  The
            # Welcome itself is the last unsigned frame either side sends.
            coordinator_nonce = protocol.auth_nonce()
            protocol.send_message(conn, Welcome(
                self.coordinator_id, auth_nonce=coordinator_nonce,
                auth_proof=protocol.welcome_proof(
                    self.auth_key, hello.auth_nonce, coordinator_nonce)))
            auth.activate_session(hello.auth_nonce, coordinator_nonce)
        else:
            protocol.send_message(conn, Welcome(self.coordinator_id))
        return info

    def _reply(self, info: _WorkerInfo, message):
        """Compute the reply to one worker request (takes the lock itself)."""
        with self._cond:
            job = self._job
            if isinstance(message, GetPlan):
                if self._closing:
                    return Goodbye()
                if job is not None and job.failure is None and not job.finished:
                    return PlanAssignment(job.plan_id, job.plan, job.store_ok,
                                          job.store_url)
                if self._retire_pending > 0:
                    # Between plans is the safe retirement point: the
                    # worker holds no lease and abandons nothing.
                    self._retire_pending -= 1
                    self._counters["workers_retired"].inc()
                    return Goodbye("retired by autoscaler")
                return NoPlan()
            if isinstance(message, FetchDataset):
                if job is None or job.plan_id != message.plan_id:
                    return PlanDone(message.plan_id)
                self._counters["datasets_served"].inc()
                return DatasetBlob(job.plan_id, job.dataset_blob,
                                   job.dataset_sha256)
            if isinstance(message, FetchCache):
                if job is None or job.plan_id != message.plan_id:
                    return PlanDone(message.plan_id)
                self._counters["caches_served"].inc()
                return CacheBlob(job.plan_id, message.model_key,
                                 job.cache_blobs[message.model_key],
                                 job.cache_sha256s[message.model_key])
            if isinstance(message, GetBatch):
                return self._lease_batch(info, job, message)
            if isinstance(message, Results):
                self._record_results(info, job, message)
                return Ack()
        raise protocol.ProtocolError(
            f"unexpected message {type(message).__name__} from {info.worker_id}")

    def _lease_batch(self, info: _WorkerInfo, job: _Job | None, message: GetBatch):
        if job is None or job.plan_id != message.plan_id or job.failure is not None:
            return PlanDone(message.plan_id)
        lease: list = []
        if self.batch_size == "auto":
            lease_cost = 0.0
            while job.queue and len(lease) < _AUTO_LEASE_MAX_CELLS:
                cell = job.queue[0]
                if cell.key in job.completed:
                    job.queue.popleft()  # stale requeued copy
                    continue
                cost = max(cell.cost_hint, 0.0)
                # The first cell is always taken (so a cell costlier than
                # the whole budget goes out as a singleton lease); after
                # that, stop before the budget overflows.
                if lease and lease_cost + cost > job.lease_budget:
                    break
                job.queue.popleft()
                lease.append(cell)
                lease_cost += cost
        else:
            while job.queue and len(lease) < self.batch_size:
                cell = job.queue.popleft()
                # A requeued cell may have been completed after all by a
                # worker that was wrongly presumed dead; skip stale copies.
                if cell.key in job.completed:
                    continue
                lease.append(cell)
        if lease:
            info.lease = lease
            info.lease_plan_id = job.plan_id
            info.lease_since = time.monotonic()
            info.speculated = False
            return Batch(job.plan_id, tuple(lease), trace=job.trace)
        if job.finished:
            return PlanDone(job.plan_id)
        return Idle()

    def _record_results(self, info: _WorkerInfo, job: _Job | None,
                        message: Results) -> None:
        if message.metrics is not None:
            self._worker_metrics[info.worker_id] = message.metrics
        if job is None or job.plan_id != message.plan_id:
            return  # stale results from a previous plan: ack and discard
        if message.spans:
            TRACER.record(message.spans)
        for result in message.results:
            if result.key in job.completed:
                self._counters["duplicate_results"].inc()
            else:
                job.completed[result.key] = result
                self._counters["results_received"].inc()
        if info.lease_plan_id == message.plan_id and info.lease:
            info.lease = []
            job.lease_durations.append(time.monotonic() - info.lease_since)
        self._cond.notify_all()
