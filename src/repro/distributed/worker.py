"""Fleet worker: pulls cell batches from a coordinator, streams results back.

Runnable as ``python -m repro.distributed.worker --connect HOST:PORT``
(also exposed as ``python -m repro.experiments fleet-worker ...``).  A
worker is a long-lived client: it serves every plan the coordinator runs
over one connection and exits when the coordinator says
:class:`~repro.distributed.protocol.Goodbye` or goes away.

A worker receives a plan's inputs one way, the way a process-pool worker
does: the :class:`~repro.experiments.pool.PlanState` inside the
:class:`~repro.distributed.protocol.PlanAssignment`.  It rebuilds the
dataset, warmed analytical caches and series factories from it once per
``(plan, state digest)`` in a bounded
:class:`~repro.experiments.scheduler.PlanMemo` and reuses them across
batches.  It opens no store and never simulates, and it evaluates each
leased batch in the scheduler's one cell loop,
:func:`~repro.experiments.scheduler.evaluate_cells`.

A daemon thread heartbeats on an interval even while cells compute, so
the coordinator can tell "slow" from "dead" without bounding cell cost.
A lost coordinator connection is retried (``reconnect_attempts`` fresh
handshakes, per-plan memo preserved) before the worker gives up and
exits cleanly.
"""

from __future__ import annotations

import argparse
import hmac
import logging
import os
import socket
import sys
import threading
import time
import uuid

from repro.cli import add_auth_args, add_logging_parent, load_auth_key
from repro.datasets.store import _FORMAT_VERSION, _simulator_versions
from repro.distributed import protocol
from repro.distributed.coordinator import FLEET_LABEL
from repro.distributed.protocol import (
    PROTOCOL_VERSION,
    Batch,
    ConnectionClosed,
    GetBatch,
    GetPlan,
    Goodbye,
    Heartbeat,
    Hello,
    Idle,
    PlanAssignment,
    PlanDone,
    Reject,
    Results,
    parse_address,
)
from repro.experiments.scheduler import PlanMemo, evaluate_cells
from repro.obs.logging import configure_logging
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.utils.retry import RetryPolicy

__all__ = ["FleetWorker", "HandshakeRejected", "main"]

logger = logging.getLogger(__name__)


class HandshakeRejected(RuntimeError):
    """The coordinator refused the HELLO handshake (version/auth mismatch)."""


class FleetWorker:
    """One fleet worker: connect, handshake, serve plans until Goodbye.

    Parameters
    ----------
    address:
        ``(host, port)`` of the coordinator.
    connect_timeout:
        Seconds to keep retrying the initial connection (workers are
        typically started before, or racing with, the coordinator).
    heartbeat_interval:
        Seconds between liveness heartbeats; must be well under the
        coordinator's ``heartbeat_timeout``.
    cell_delay:
        Artificial per-cell sleep in seconds, taken before each leased
        batch (fault-injection knob for tests and demos; defaults to
        ``$REPRO_FLEET_CELL_DELAY`` or 0).
    reconnect_attempts:
        Fresh connect+handshake attempts after the coordinator connection
        drops mid-service (each within ``reconnect_timeout`` seconds)
        before the worker exits cleanly.  The per-plan memo survives a
        reconnect, so a resumed plan is not rebuilt.
    auth_key:
        The fleet's shared secret.  With a key the HELLO handshake
        carries a challenge proof, the coordinator's WELCOME is
        verified, and every subsequent frame in both directions is
        HMAC-signed under a per-connection session key.
    """

    def __init__(self, address: tuple[str, int], *,
                 worker_id: str | None = None, connect_timeout: float = 20.0,
                 heartbeat_interval: float = 1.0,
                 cell_delay: float | None = None,
                 reconnect_attempts: int = 3,
                 reconnect_timeout: float = 2.0,
                 auth_key: bytes | None = None) -> None:
        self.address = address
        self.auth_key = auth_key
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}")
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        if cell_delay is None:
            cell_delay = float(os.environ.get("REPRO_FLEET_CELL_DELAY", "0") or 0)
        self.cell_delay = cell_delay
        if reconnect_attempts < 0:
            raise ValueError(
                f"reconnect_attempts must be >= 0, got {reconnect_attempts}")
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_timeout = reconnect_timeout
        # The worker's telemetry registry: every counter below is shipped
        # to the coordinator inside Heartbeat/Results frames (protocol
        # v4) and merged into the fleet-wide view its status port serves.
        # The int attributes (`worker.cells_evaluated`, ...) are
        # read-only properties over these counters.
        self.metrics = MetricsRegistry(attach_to=REGISTRY)
        self._counters = {
            "plans_served": self.metrics.counter(
                "repro_worker_plans_served_total", "Plans this worker served"),
            "cells_evaluated": self.metrics.counter(
                "repro_worker_cells_evaluated_total",
                "Cells this worker evaluated"),
            # Successful re-connect+handshake cycles after a dropped socket.
            "reconnects": self.metrics.counter(
                "repro_worker_reconnects_total",
                "Successful reconnect+handshake cycles"),
        }
        self._send_lock = threading.Lock()
        #: Per-connection frame authenticator (rebuilt on every fresh
        #: connect so reconnects negotiate a new session key).
        self._auth: protocol.FrameAuth | None = None
        self._memo = PlanMemo()

    # Compatibility views over the registry counters (tests and callers
    # read these as plain ints; writes go through the registry so every
    # increment is atomic and wire-shippable).
    @property
    def plans_served(self) -> int:
        """Plans this worker served (registry-backed view)."""
        return int(self._counters["plans_served"].value)

    @property
    def cells_evaluated(self) -> int:
        """Cells this worker evaluated (registry-backed view)."""
        return int(self._counters["cells_evaluated"].value)

    @property
    def reconnects(self) -> int:
        """Successful reconnect+handshake cycles."""
        return int(self._counters["reconnects"].value)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Serve the coordinator until Goodbye (0) or a failed start (1).

        A connection lost mid-service (coordinator restart, network blip,
        corrupted frame) is retried with a fresh connect + handshake up
        to ``reconnect_attempts`` times; the per-plan memo is preserved,
        so a reconnected worker resumes without rebuilding its plan state.
        When the coordinator stays gone the worker exits 0 — its leased
        cells are requeued on the coordinator's side if it lives.
        """
        attempts_left = self.reconnect_attempts
        connected_before = False
        while True:
            try:
                timeout = (self.reconnect_timeout if connected_before
                           else self.connect_timeout)
                sock = self._connect(timeout)
            except OSError as exc:
                if connected_before:
                    logger.info("worker %s: coordinator did not come back "
                                "within %.1fs: %s", self.worker_id,
                                self.reconnect_timeout, exc)
                    return 0
                print(f"fleet worker {self.worker_id}: cannot reach coordinator "
                      f"at {self.address[0]}:{self.address[1]}: {exc}",
                      file=sys.stderr)
                return 1
            stop_heartbeat = threading.Event()
            self._auth = (protocol.FrameAuth(self.auth_key, role="worker")
                          if self.auth_key is not None else None)
            try:
                self._handshake(sock)
                if connected_before:
                    self._counters["reconnects"].inc()
                    attempts_left = self.reconnect_attempts
                connected_before = True
                heartbeat = threading.Thread(
                    target=self._heartbeat_loop, args=(sock, stop_heartbeat),
                    name="fleet-heartbeat", daemon=True)
                heartbeat.start()
                # GetPlan is a long poll: the coordinator holds it until a
                # plan starts or it closes, and a NoPlan means ask again.
                while True:
                    reply = self._request(sock, GetPlan(self.worker_id))
                    if isinstance(reply, Goodbye):
                        return 0
                    if isinstance(reply, PlanAssignment):
                        self._serve_plan(sock, reply)
            except HandshakeRejected as exc:
                print(f"fleet worker {self.worker_id}: rejected: {exc}",
                      file=sys.stderr)
                return 2
            except (ConnectionClosed, ConnectionError, OSError,
                    protocol.ProtocolError) as exc:
                if attempts_left <= 0:
                    return 0
                attempts_left -= 1
                logger.warning(
                    "worker %s: coordinator connection lost (%s: %s); "
                    "reconnecting (%d attempts left)", self.worker_id,
                    type(exc).__name__, exc, attempts_left)
            finally:
                stop_heartbeat.set()
                try:
                    sock.close()
                except OSError:
                    pass

    def _connect(self, timeout: float) -> socket.socket:
        # Effectively attempt-unbounded: the wall-clock budget governs.
        policy = RetryPolicy(max_attempts=100_000, base_delay=0.1,
                             multiplier=1.0, max_delay=0.1, jitter=0.0,
                             max_elapsed=timeout)
        return policy.call(
            lambda: socket.create_connection(self.address, timeout=None))

    def _handshake(self, sock: socket.socket) -> None:
        nonce = proof = ""
        if self.auth_key is not None:
            nonce = protocol.auth_nonce()
            proof = protocol.hello_proof(self.auth_key, nonce, self.worker_id)
        reply = self._request(sock, Hello(
            protocol_version=PROTOCOL_VERSION,
            store_format_version=_FORMAT_VERSION,
            worker_id=self.worker_id, pid=os.getpid(),
            simulator_versions=_simulator_versions(),
            auth_nonce=nonce, auth_proof=proof))
        if isinstance(reply, Reject):
            raise HandshakeRejected(reply.reason)
        if not isinstance(reply, protocol.Welcome):
            raise protocol.ProtocolError(
                f"expected Welcome or Reject, got {type(reply).__name__}")
        if self.auth_key is not None:
            # Verify the coordinator's proof over our challenge before
            # trusting anything it says: a keyless (or wrong-keyed)
            # coordinator cannot compute it.
            expected = protocol.welcome_proof(
                self.auth_key, nonce, reply.auth_nonce)
            if not reply.auth_proof or not hmac.compare_digest(
                    reply.auth_proof, expected):
                raise HandshakeRejected(
                    "coordinator did not prove knowledge of the shared "
                    "key (is it running with the same --auth-key-file?)")
            self._auth.activate_session(nonce, reply.auth_nonce)

    def _heartbeat_loop(self, sock: socket.socket, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                # Each beat carries a fresh counter snapshot (v4), so the
                # coordinator's fleet view stays live even while a long
                # batch computes.
                beat = Heartbeat(self.worker_id, metrics=self.metrics.snapshot())
                protocol.send_message(sock, beat, self._send_lock, self._auth)
            except OSError:
                return

    def _request(self, sock: socket.socket, message):
        """Send one request and read its single reply.

        The coordinator only ever writes replies (heartbeats go the other
        way and are reply-less), so request/reply pairing is positional.
        """
        protocol.send_message(sock, message, self._send_lock, self._auth)
        return protocol.recv_message(sock, self._auth)

    # ------------------------------------------------------------------ #
    # Plan serving
    # ------------------------------------------------------------------ #
    def _serve_plan(self, sock: socket.socket, assignment: PlanAssignment) -> None:
        try:
            dataset, factories = self._memo.resolve(assignment.plan,
                                                    assignment.state)
        except (KeyError, ValueError) as exc:
            # Well formed, but it names an analytical model, estimator or
            # factory this build cannot make: as bad as a corrupt frame.
            raise protocol.ProtocolError(
                f"plan assignment does not resolve: {exc}") from exc
        plan_id = assignment.plan_id
        self._counters["plans_served"].inc()
        while True:
            reply = self._request(sock, GetBatch(plan_id, self.worker_id))
            if isinstance(reply, PlanDone):
                return
            if isinstance(reply, Idle):  # a held GetBatch timed out: ask again
                continue
            if not isinstance(reply, Batch):
                raise protocol.ProtocolError(
                    f"expected a batch, got {type(reply).__name__}")
            results, spans = self._evaluate_batch(reply, factories, dataset)
            self._counters["cells_evaluated"].inc(len(results))
            self._request(sock, Results(
                plan_id, self.worker_id, tuple(results), spans=tuple(spans),
                metrics=self.metrics.snapshot()))

    def _evaluate_batch(self, batch: Batch, factories, dataset):
        """One leased batch's results plus (when traced) its finished spans.

        Cells go through the scheduler's one cell loop; with a ``trace``
        context in the frame, its batch and cell spans name this worker
        and ship back inside the :class:`Results` frame.
        """
        unknown = {cell.factory_key for cell in batch.cells} - factories.keys()
        if unknown:
            raise protocol.ProtocolError(
                f"batch names series the plan lacks: {sorted(unknown)}")
        if self.cell_delay:
            time.sleep(self.cell_delay * len(batch.cells))
        identity = {"worker": self.worker_id}
        return evaluate_cells(batch.cells, factories, dataset, batch.trace,
                              attrs={"executor": "remote", **identity},
                              cell_attrs=identity)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed.worker",
        description="Fleet worker: evaluate experiment cells for a coordinator",
        parents=[add_auth_args(), add_logging_parent()],
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    parser.add_argument("--worker-id", default=None,
                        help="stable identity (default: host-pid-random; "
                             f"{FLEET_LABEL!r} is reserved)")
    parser.add_argument("--connect-timeout", type=float, default=20.0, metavar="S",
                        help="seconds to retry the initial connection (default 20)")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0, metavar="S",
                        help="seconds between liveness heartbeats (default 1)")
    parser.add_argument("--cell-delay", type=float, default=None, metavar="S",
                        help="artificial per-cell sleep (fault-injection/testing; "
                             "default $REPRO_FLEET_CELL_DELAY or 0)")
    parser.add_argument("--reconnect-attempts", type=int, default=3, metavar="N",
                        help="fresh connect+handshake attempts after the "
                             "coordinator connection drops (default 3; 0 = exit "
                             "on first drop)")
    args = parser.parse_args(argv)
    configure_logging(fmt=args.log_format, level=args.log_level)
    auth_key = load_auth_key(args.auth_key_file, parser=parser)
    if args.reconnect_attempts < 0:
        parser.error(
            f"--reconnect-attempts must be >= 0, got {args.reconnect_attempts}")
    if args.worker_id == FLEET_LABEL:
        parser.error(f"--worker-id {FLEET_LABEL} is reserved for the fleet-wide "
                     "metrics aggregate")
    worker = FleetWorker(
        parse_address(args.connect),
        worker_id=args.worker_id, connect_timeout=args.connect_timeout,
        heartbeat_interval=args.heartbeat_interval, cell_delay=args.cell_delay,
        reconnect_attempts=args.reconnect_attempts, auth_key=auth_key)
    return worker.run()


if __name__ == "__main__":
    sys.exit(main())
