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
Work is handed out in *leased* batches of :data:`LEASE_CELLS` cells, in
plan order.  A lease is released when the worker returns its results;
if the worker's connection drops (EOF, reset — a ``SIGKILL``'d process
closes its sockets immediately) or its heartbeat goes silent for longer
than ``heartbeat_timeout``, every unfinished cell of the lease is
requeued at the front of the queue.  Each
cell tolerates ``max_retries`` requeues; one cell exceeding the budget
fails the whole plan with a hard error (a cell is deterministic, so
repeated failure means the fleet — not the data — is broken).  A worker
wrongly presumed dead may still return results later; completed-cell
bookkeeping dedupes them, and because cells are pure either copy of a
result is bit-identical.

Straggler speculation rides on the same dedupe: once the queue drains,
a lease held far longer than the fleet's typical lease duration (past
:data:`SPECULATION_FACTOR` × the :data:`SPECULATION_PERCENTILE` of
completed lease times, and at least :data:`SPECULATION_MIN_DELAY_S`) is
*speculatively re-leased* — its unfinished cells are duplicated to the
queue for a healthy worker to race, without charging the cell's retry
budget.  Whichever copy lands first wins; the loser is
counted as a duplicate and discarded.  This bounds plan latency by the
healthy fleet, not by one degraded host.

Long polls
----------
A ``GetPlan`` or ``GetBatch`` the coordinator cannot answer yet is held
on its condition variable instead of being told to come back later: it
is answered the moment :meth:`execute` installs a plan, a lease is
requeued or speculated, the plan finishes or fails, or :meth:`close`
begins.  Only a hold that lasts :data:`LONG_POLL_S` is answered with
:class:`NoPlan` or :class:`Idle`, and the worker asks again at once, so
an idle worker sends no more than a few requests a second.

Plan state
----------
:meth:`execute` takes the plan's :class:`~repro.experiments.pool.PlanState`
— the resolved dataset and warmed analytical caches the caller packed —
and every :class:`PlanAssignment` carries it, so a worker has all it
needs from one reply: it opens no store and never simulates.
"""

from __future__ import annotations

import hmac
import logging
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
from repro.datasets.store import _FORMAT_VERSION, _simulator_versions
from repro.distributed import protocol
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    Ack,
    Batch,
    ConnectionClosed,
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

logger = logging.getLogger(__name__)

#: Cells per lease.  Small leases bound both the requeue cost of a dead
#: worker and fleet idle time at the tail of a plan.
LEASE_CELLS = 4
#: Straggler speculation: once the queue drains, a lease outstanding
#: longer than ``max(SPECULATION_MIN_DELAY_S, SPECULATION_FACTOR x`` the
#: ``SPECULATION_PERCENTILE`` of the plan's completed lease durations) is
#: duplicated to the queue, once, for a healthy worker to race.
SPECULATION_FACTOR = 3.0
SPECULATION_PERCENTILE = 0.75
SPECULATION_MIN_DELAY_S = 2.0
#: Longest a ``GetPlan``/``GetBatch`` with no answer yet is held before
#: it is answered ``NoPlan``/``Idle``.  A held connection reads no
#: heartbeats, so a hold also stops at half of ``heartbeat_timeout``.
LONG_POLL_S = 0.2
#: Longest close() waits for registered workers to take their Goodbye and
#: hang up.  A worker holding a GetPlan takes it at once; the wait is
#: for one that is still returning a batch of a plan that already ended.
GOODBYE_WAIT_S = 0.4
#: Read timeout, in seconds, on a connection that has not completed
#: HELLO.  Workers send HELLO as soon as they connect; a peer that stays
#: silent this long is severed.
HELLO_TIMEOUT_S = 5.0
#: Most connections that may be waiting to complete HELLO at once.  Each
#: holds a thread; a connection accepted over the cap is closed at once.
MAX_PENDING_HELLOS = 32
#: ``worker`` label of the fleet-wide aggregate in :meth:`Coordinator.fleet_snapshot`.
#: A worker may not take it as its id: its series would be summed into
#: the aggregate's twice.
FLEET_LABEL = "fleet"


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

    def __init__(self, plan, state, cells: list) -> None:
        self.plan = plan
        self.state = state
        # The digest makes the same plan on other data another plan.
        self.plan_id = f"{plan.fingerprint}-{state.digest[:16]}"
        self.cells = cells
        self.queue = deque(cells)
        self.completed: dict[tuple, CellResult] = {}
        self.retries: dict[tuple, int] = {}
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
    max_retries:
        Requeue budget per cell; exceeding it fails the plan.
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
                 heartbeat_timeout: float = 15.0, max_retries: int = 3,
                 auth_key: bytes | None = None) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        #: The fleet's shared secret: with a key, HELLO handshakes must
        #: carry a valid challenge proof and every post-handshake frame
        #: is HMAC-signed under a per-connection session key.
        self.auth_key = auth_key
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
                "Datasets shipped in plan assignments"),
            "caches_served": (
                "repro_fleet_caches_served_total",
                "Analytical caches shipped in plan assignments"),
            "speculative_releases": (
                "repro_fleet_speculative_releases_total",
                "Straggler leases speculatively duplicated"),
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
        self._closing = False
        self._procs: list[subprocess.Popen] = []
        self._threads: list[threading.Thread] = []
        #: Every accepted connection, registered worker or not, so that
        #: close() can sever the ones that never sent HELLO.
        self._conns: set[socket.socket] = set()
        #: Accepted connections that have not completed HELLO yet.
        self._pending_hellos = 0

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
        series) and once summed into ``worker="fleet"`` (the aggregate,
        :data:`FLEET_LABEL`, an id no worker may take).
        Worker snapshots outlive their connections, so completed work
        never vanishes from the aggregate when a worker leaves.  Workers
        merge in the order they first reported; a snapshot that does not
        merge with those before it (a metric of another kind or
        labelnames, a ``worker`` label of its own) is left out and
        logged, so a newcomer can neither take ``/metrics`` down nor push
        out the series of the workers already reporting.
        """
        with self._lock:
            worker_snaps = dict(self._worker_metrics)
            self._workers_gauge.set(len(self._workers))
        snap = self.metrics.snapshot()
        for worker_id, worker_snap in worker_snaps.items():
            try:
                snap = (snap.merge(worker_snap.with_labels(worker=worker_id))
                        .merge(worker_snap.with_labels(worker=FLEET_LABEL)))
            except ValueError as exc:
                logger.warning("leaving worker %s out of the fleet metrics: %s",
                               worker_id, exc)
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

    def spawn_local_workers(self, n: int, *, cell_delay: float | None = None,
                            auth_key_file=None) -> list[subprocess.Popen]:
        """Spawn *n* localhost worker processes connected to this coordinator.

        The single-command convenience mode: ``--executor remote --jobs N``
        without an external fleet.  The workers inherit the environment
        plus a ``PYTHONPATH`` entry for this package, so they import the
        same code whether it is installed or run from a source tree.
        *auth_key_file* hands them the fleet's shared secret (required
        to handshake with a keyed coordinator — the key itself never
        appears on a command line, only its path).
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        host, port = self.address
        env = os.environ.copy()
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
        cmd = [sys.executable, "-m", "repro.distributed.worker",
               "--connect", f"{host}:{port}"]
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
        """A point-in-time load snapshot (``/healthz`` reports it).

        ``queue_depth`` is cells waiting for a lease, ``leased`` cells out
        with workers, ``outstanding`` their sum (work not yet completed),
        ``workers`` live connections.  All but ``workers`` are zero
        between plans.
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
            }

    def execute(self, plan, cells: list, state) -> list[CellResult]:
        """Run every cell of *plan* on the fleet; results in plan order.

        *state* is the :class:`~repro.experiments.pool.PlanState` the
        caller packed from its resolved dataset and warmed caches (the
        value the process executor ships too); every
        :class:`PlanAssignment` of the plan carries it.
        """
        job = _Job(plan, state, cells)
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
        """Shut the fleet down: Goodbye to idle workers, reap local ones.

        A worker holding a ``GetPlan`` gets its Goodbye the moment this
        begins.  Spawned workers get up to *timeout* seconds to take it
        and exit; registered in-process or external workers get
        :data:`GOODBYE_WAIT_S`.  Every connection still open after that
        is severed.
        """
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
            procs = list(self._procs)
        deadline = time.monotonic() + timeout
        # Local workers hold a GetPlan between plans and receive Goodbye
        # as soon as _closing is set; give them the grace window, then
        # escalate.
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
        # Registered workers take their Goodbye from their GetPlan too,
        # instead of reconnecting to a closed listener.
        wait = min(GOODBYE_WAIT_S, deadline - time.monotonic())
        with self._cond:
            self._cond.wait_for(lambda: not self._workers, timeout=max(0.0, wait))
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            _sever_socket(conn)
        for thread in list(self._threads):
            thread.join(timeout=2.0)

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
        local worker has exited and no connection remains.
        """
        if self._workers or not self._procs:
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
        if job.queue or not job.lease_durations:
            return
        durations = sorted(job.lease_durations)
        index = int(SPECULATION_PERCENTILE * (len(durations) - 1))
        deadline = max(SPECULATION_MIN_DELAY_S,
                       SPECULATION_FACTOR * durations[index])
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
            with self._lock:
                admitted = self._pending_hellos < MAX_PENDING_HELLOS
                if admitted:
                    self._pending_hellos += 1
            if not admitted:
                _sever_socket(conn)
                continue
            conn.settimeout(HELLO_TIMEOUT_S)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, addr),
                name=f"fleet-conn-{addr[0]}:{addr[1]}", daemon=True)
            with self._lock:
                self._conns.add(conn)
                self._threads.append(thread)
            thread.start()

    def _serve_connection(self, conn, addr) -> None:
        info: _WorkerInfo | None = None
        pending = True  # holds one of the MAX_PENDING_HELLOS slots
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
                    if pending:
                        # A registered worker may idle between requests.
                        conn.settimeout(None)
                        pending = False
                        with self._lock:
                            self._pending_hellos -= 1
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
                if pending:
                    self._pending_hellos -= 1

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
                      f"{_FORMAT_VERSION} — the builds disagree on fingerprints")
        elif hello.simulator_versions != _simulator_versions():
            # Fingerprints fold in the simulator versions: a skewed worker
            # is another build than the one the plan's dataset came from.
            reason = (f"simulator version mismatch: worker has "
                      f"{hello.simulator_versions!r}, coordinator "
                      f"{_simulator_versions()!r} — fingerprints would not agree")
        elif hello.worker_id == FLEET_LABEL:
            reason = (f"worker id {FLEET_LABEL!r} is reserved: it labels the "
                      "fleet-wide aggregate of the workers' metrics")
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
        """Compute the reply to one worker request (takes the lock itself).

        A ``GetPlan`` or ``GetBatch`` with no answer yet is held and asked
        again on every ``notify_all``, for at most :data:`LONG_POLL_S`
        (and half of ``heartbeat_timeout``); a hold that times out is
        answered :class:`NoPlan` or :class:`Idle`.
        """
        if isinstance(message, GetPlan):
            answer, timed_out = self._assign_plan, NoPlan
        elif isinstance(message, GetBatch):
            answer, timed_out = lambda: self._lease_batch(info, message), Idle
        elif isinstance(message, Results):
            with self._cond:
                self._record_results(info, self._job, message)
            return Ack()
        else:
            raise protocol.ProtocolError(
                f"unexpected message {type(message).__name__} from {info.worker_id}")
        hold_until = time.monotonic() + min(LONG_POLL_S, self.heartbeat_timeout / 2)
        with self._cond:
            while (reply := answer()) is None:
                remaining = hold_until - time.monotonic()
                if remaining <= 0:
                    return timed_out()
                self._cond.wait(remaining)
            return reply

    def _assign_plan(self):
        """The reply to a ``GetPlan``; ``None`` while there is none (lock held)."""
        if self._closing:
            return Goodbye()
        job = self._job
        if job is None or job.failure is not None or job.finished:
            return None
        self._counters["datasets_served"].inc()
        self._counters["caches_served"].inc(len(job.state.cache_values))
        return PlanAssignment(job.plan_id, job.plan, job.state)

    def _lease_batch(self, info: _WorkerInfo, message: GetBatch):
        """The reply to a ``GetBatch``; ``None`` while every cell left is
        leased to another worker (lock held)."""
        job = self._job
        if job is None or job.plan_id != message.plan_id or job.failure is not None:
            return PlanDone(message.plan_id)
        lease: list = []
        while job.queue and len(lease) < LEASE_CELLS:
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
        return None

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
