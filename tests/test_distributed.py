"""Tests for the distributed worker-fleet executor (`repro.distributed`).

The guarantees under test:

* the ``remote`` executor produces ``ExperimentResult`` rows **bit-identical**
  to the serial executor — for a clean fleet, for a fleet whose worker is
  SIGKILLed mid-plan (leased cells are requeued), and for a worker whose
  heartbeat goes silent;
* the HELLO handshake rejects protocol-version and store-format-version
  mismatches instead of exchanging incompatible artifacts;
* before HELLO, a malformed frame or a mistyped ``Hello`` severs the
  connection without crashing its thread, a silent peer is severed after
  ``HELLO_TIMEOUT_S``, and at most ``MAX_PENDING_HELLOS`` peers wait at once;
* a worker receives a plan's dataset and warmed analytical caches one
  way, the ``PlanState`` inside the ``PlanAssignment``: it opens no
  store, warms no cache and builds no dataset, and a malformed state
  fails decoding without killing the worker thread;
* the worker's plan-state memo is bounded by the pool's limit;
* a worker's metrics snapshot is wire input too: a malformed one severs
  its connection, and one that does not merge with the rest is left out
  of ``/metrics``, which keeps answering 200;
* a cell that exhausts its requeue budget fails the plan with a hard
  error rather than hanging the coordinator;
* ``GetPlan`` and ``GetBatch`` are long polls: a request with no answer
  yet is held until a plan starts, a lease is requeued or the fleet
  closes, ``NoPlan``/``Idle`` come only after a full ``LONG_POLL_S``
  hold, and a hold never passes for heartbeat silence;
* no reply tells a worker to sleep: a ``NoPlan``/``Idle`` that carries a
  ``delay`` fails decoding, and the worker takes its protocol-error path.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import signal
import socket
import struct
import threading
import time
import urllib.request
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.store import (
    _FORMAT_VERSION,
    DatasetSpec,
    DatasetStore,
    _simulator_versions,
)
from repro.distributed import codec, protocol
from repro.distributed.coordinator import (
    FLEET_LABEL,
    GOODBYE_WAIT_S,
    LEASE_CELLS,
    LONG_POLL_S,
    Coordinator,
)
from repro.distributed.protocol import PROTOCOL_VERSION, parse_address
from repro.distributed.worker import FleetWorker
from repro.experiments import EXECUTORS, ExperimentSettings, run_all, run_experiment
from repro.experiments.plan import expand_cells, experiment_plan
from repro.experiments.pool import PlanState
from repro.experiments.scheduler import (
    _WORKER_STATE_LIMIT,
    resolve_data,
    run_plan,
)
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, parse_prometheus

TINY = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120, random_state=0)


def _rows(result):
    return (result.rows(), result.extra)


def _raw_handshake(address, *, protocol_version=PROTOCOL_VERSION,
                   store_format_version=_FORMAT_VERSION,
                   simulator_versions=None, worker_id="raw-client"):
    """Connect a bare socket and perform (a possibly broken) HELLO."""
    sock = socket.create_connection(address, timeout=10.0)
    protocol.send_message(sock, protocol.Hello(
        protocol_version=protocol_version,
        store_format_version=store_format_version,
        worker_id=worker_id, pid=os.getpid(),
        simulator_versions=(simulator_versions if simulator_versions is not None
                            else _simulator_versions())))
    return sock, protocol.recv_message(sock)


def _await_plan(sock, worker_id="raw-client", timeout=30.0):
    """Ask GetPlan on a raw client until a PlanAssignment arrives (each
    request is held up to ``LONG_POLL_S``)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        protocol.send_message(sock, protocol.GetPlan(worker_id))
        reply = protocol.recv_message(sock)
        if isinstance(reply, protocol.PlanAssignment):
            return reply
    raise AssertionError("no plan became active in time")


def _in_thread(fn):
    """``fn()`` in a thread; returns (thread, outcome box)."""
    box: dict = {}

    def _target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced via the box
            box["error"] = exc

    thread = threading.Thread(target=_target, daemon=True)
    thread.start()
    return thread, box


def _run_plan_async(plan, coordinator, **kwargs):
    """run_plan(workers=coordinator) in a thread; returns (thread, outcome box)."""
    return _in_thread(lambda: run_plan(plan, workers=coordinator, **kwargs))


def _assignment():
    """A real ``PlanAssignment``: figure 6's plan and its packed state."""
    plan = experiment_plan("figure6", TINY)
    state = PlanState.pack(*resolve_data(plan.dataset, plan.cache_keys()))
    return protocol.PlanAssignment(f"{plan.fingerprint}-{state.digest[:16]}",
                                   plan, state)


class TestProtocol:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            messages = [
                protocol.Hello(PROTOCOL_VERSION, _FORMAT_VERSION, "w1", 123),
                protocol.Heartbeat("w1"),
                _assignment(),
                protocol.Results("abc", "w1", ()),
            ]
            lock = threading.Lock()
            for message in messages:
                protocol.send_message(left, message, lock)
            for message in messages:
                assert protocol.recv_message(right) == message
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(protocol.ConnectionClosed):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_size_bound_refuses_larger_frames(self):
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, protocol.Heartbeat("w" * 100))
            with pytest.raises(protocol.ProtocolError, match="exceeds the 64 cap"):
                protocol.recv_message(right, max_bytes=64)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("delay", [0.2, -1.0, float("nan"), "x", 1e300])
    @pytest.mark.parametrize("tag", ["NoPlan", "Idle"])
    def test_a_sleep_order_fails_decoding(self, tag, delay):
        """NoPlan and Idle have no fields since v8: one that carries a
        ``delay``, sane or not, is outside the schema."""
        assert dataclasses.fields(getattr(protocol, tag)) == ()
        with pytest.raises(codec.CodecError, match="no field 'delay'"):
            codec.decode_value(_forged_struct(tag, delay=delay))

    def test_parse_address(self):
        assert parse_address("10.0.0.1:9001") == ("10.0.0.1", 9001)
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address(":9001")


class TestHandshake:
    @pytest.fixture()
    def coordinator(self):
        with Coordinator() as coordinator:
            yield coordinator

    def test_protocol_version_mismatch_rejected(self, coordinator):
        sock, reply = _raw_handshake(coordinator.address,
                                     protocol_version=PROTOCOL_VERSION + 1)
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "protocol version" in reply.reason
        assert coordinator.stats["rejected_handshakes"] == 1

    def test_store_format_version_mismatch_rejected(self, coordinator):
        sock, reply = _raw_handshake(coordinator.address,
                                     store_format_version=_FORMAT_VERSION + 1)
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "store fingerprint format" in reply.reason

    def test_simulator_version_mismatch_rejected(self, coordinator):
        """Fingerprints fold in the simulator versions, so a skewed worker
        must not be allowed to exchange store artifacts."""
        sock, reply = _raw_handshake(coordinator.address,
                                     simulator_versions="fmm999-stencil999")
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "simulator version" in reply.reason

    def test_fleet_label_worker_id_rejected(self, coordinator):
        """The aggregate's label is no worker's id: that worker's series
        would land twice on the aggregate's key."""
        sock, reply = _raw_handshake(coordinator.address, worker_id=FLEET_LABEL)
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "reserved" in reply.reason
        assert coordinator.stats["rejected_handshakes"] == 1

    def test_matching_versions_welcomed(self, coordinator):
        sock, reply = _raw_handshake(coordinator.address)
        assert isinstance(reply, protocol.Welcome)
        assert reply.coordinator_id == coordinator.coordinator_id
        sock.close()

    def test_request_before_handshake_rejected(self, coordinator):
        sock = socket.create_connection(coordinator.address, timeout=10.0)
        protocol.send_message(sock, protocol.GetPlan("impatient"))
        reply = protocol.recv_message(sock)
        sock.close()
        assert isinstance(reply, protocol.Reject)
        assert "handshake" in reply.reason

    def test_oversized_frame_before_hello_is_severed(self, coordinator):
        """Before HELLO a peer may declare at most MAX_HELLO_BYTES: a larger
        header severs the connection at once, without waiting for (or
        buffering) the body, and the coordinator keeps serving."""
        sock = socket.create_connection(coordinator.address, timeout=10.0)
        try:
            sock.sendall(protocol._HEADER.pack(1 << 20, 0, 0))  # no body follows
            sock.settimeout(1.0)
            assert sock.recv(1) == b""
        finally:
            sock.close()
        sock, reply = _raw_handshake(coordinator.address)
        sock.close()
        assert isinstance(reply, protocol.Welcome)

    def test_rejected_worker_exits_with_error(self, coordinator, monkeypatch):
        monkeypatch.setattr("repro.distributed.worker.PROTOCOL_VERSION",
                            PROTOCOL_VERSION + 1)
        worker = FleetWorker(coordinator.address, connect_timeout=5.0)
        assert worker.run() == 2


def _wait_for(condition, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def _frame(payload: bytes) -> bytes:
    """*payload* behind a valid, unsigned frame header."""
    return protocol._HEADER.pack(len(payload), zlib.crc32(payload), 0) + payload


def _text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _forged_struct(tag: str, **fields) -> bytes:
    """The encoded wire struct *tag* with *fields*, whatever its class
    declares: what an older or hostile peer sends."""
    return (b"S" + _text(tag) + struct.pack(">I", len(fields))
            + b"".join(_text(name) + codec.encode_value(value)
                       for name, value in fields.items()))


def _mistyped_hello(**fields):
    """A ``Hello`` built around its own type checks, as a hostile peer sends it."""
    hello = object.__new__(protocol.Hello)
    values = dict(protocol_version=PROTOCOL_VERSION,
                  store_format_version=_FORMAT_VERSION, worker_id="raw-client",
                  pid=os.getpid(), simulator_versions=_simulator_versions(),
                  auth_nonce="", auth_proof="")
    values.update(fields)
    for field in dataclasses.fields(protocol.Hello):
        object.__setattr__(hello, field.name, values[field.name])
    return hello


class TestPreHelloInput:
    """Malformed or idle peers before HELLO: severed, never a thread crash."""

    @pytest.fixture()
    def thread_errors(self, monkeypatch):
        errors: list = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: errors.append(args.exc_value))
        return errors

    @staticmethod
    def _send_first_frame(coordinator, frame: bytes) -> bytes:
        """Open a connection, send *frame*, and return all bytes sent back
        before the coordinator closed it; joins the connection's thread."""
        with socket.create_connection(coordinator.address, timeout=10.0) as sock:
            _wait_for(lambda: coordinator._threads, "the connection to be accepted")
            threads = list(coordinator._threads)
            sock.sendall(frame)
            received = b""
            while chunk := sock.recv(1 << 16):
                received += chunk
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        return received

    def test_unhashable_dict_key_is_severed(self, thread_errors):
        """A dict keyed by a list used to escape the codec as a TypeError
        and kill the connection thread."""
        payload = b"d" + struct.pack(">I", 1) + b"l" + struct.pack(">I", 0) + b"N"
        with Coordinator() as coordinator:
            assert self._send_first_frame(coordinator, _frame(payload)) == b""
            sock, reply = _raw_handshake(coordinator.address)
            sock.close()
        assert isinstance(reply, protocol.Welcome)
        assert thread_errors == []

    @pytest.mark.parametrize("key,proof", [(None, ""), (b"fleet-key", "forged")],
                             ids=["unkeyed", "keyed"])
    def test_mistyped_hello_is_severed(self, thread_errors, key, proof):
        """A Hello whose worker_id is a list used to crash the handshake: in
        the worker registry unkeyed, in the proof check keyed."""
        hello = _mistyped_hello(worker_id=["x"], auth_nonce="nonce" if proof else "",
                                auth_proof=proof)
        with Coordinator(auth_key=key) as coordinator:
            assert self._send_first_frame(
                coordinator, _frame(codec.encode_value(hello))) == b""
            assert coordinator.load()["workers"] == 0
        assert thread_errors == []

    def test_idle_connection_is_severed_within_the_deadline(self, monkeypatch):
        monkeypatch.setattr("repro.distributed.coordinator.HELLO_TIMEOUT_S", 0.5)
        with Coordinator() as coordinator:
            with socket.create_connection(coordinator.address, timeout=10.0) as sock:
                start = time.monotonic()
                assert sock.recv(1) == b""
                elapsed = time.monotonic() - start
        assert 0.4 < elapsed < 5.0, f"severed after {elapsed:.2f} s"

    def test_worker_registers_once_idle_peers_time_out(self, monkeypatch):
        """Idle peers fill the pre-HELLO cap: a connection over it is closed
        at once, and a worker registers once their deadline has passed."""
        monkeypatch.setattr("repro.distributed.coordinator.HELLO_TIMEOUT_S", 1.0)
        monkeypatch.setattr("repro.distributed.coordinator.MAX_PENDING_HELLOS", 3)
        with Coordinator() as coordinator:
            idle = [socket.create_connection(coordinator.address, timeout=10.0)
                    for _ in range(3)]
            try:
                _wait_for(lambda: coordinator._pending_hellos == 3,
                          "the idle peers to be accepted")
                with socket.create_connection(coordinator.address,
                                              timeout=10.0) as extra:
                    start = time.monotonic()
                    assert extra.recv(1) == b""
                    assert time.monotonic() - start < 0.5
                for sock in idle:
                    assert sock.recv(1) == b""
            finally:
                for sock in idle:
                    sock.close()
            _wait_for(lambda: coordinator._pending_hellos == 0, "the slots to free")
            worker = FleetWorker(coordinator.address, connect_timeout=5.0)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            _wait_for(lambda: coordinator.load()["workers"] == 1,
                      "the worker to register")
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestClose:
    def test_close_is_prompt_with_an_idle_pre_hello_connection(self):
        """close() wakes the accept loop and severs connections that never
        sent HELLO, instead of waiting out a join timeout for each."""
        coordinator = Coordinator()
        sock = socket.create_connection(coordinator.address, timeout=10.0)
        try:
            deadline = time.monotonic() + 10.0
            while not coordinator._threads:  # until the connection is accepted
                assert time.monotonic() < deadline, "connection never accepted"
                time.sleep(0.005)
            start = time.perf_counter()
            coordinator.close()
            elapsed = time.perf_counter() - start
            assert sock.recv(1) == b""  # the coordinator severed it
        finally:
            sock.close()
        assert elapsed < 0.1, f"close() took {elapsed:.3f} s"

    def test_idle_in_process_worker_takes_its_goodbye(self, caplog):
        """An in-process worker idle between plans exits within 0.5 s of
        close(), on the Goodbye its next poll gets: it never sees its
        connection cut, so it neither reconnects nor logs a lost one."""
        coordinator = Coordinator()
        worker = FleetWorker(coordinator.address)
        outcome: dict = {}
        thread = threading.Thread(
            target=lambda: outcome.update(code=worker.run()), daemon=True)
        with caplog.at_level(logging.INFO, logger="repro.distributed.worker"):
            thread.start()
            deadline = time.monotonic() + 10.0
            while not coordinator.worker_snapshot():
                assert time.monotonic() < deadline, "worker never registered"
                time.sleep(0.01)
            start = time.perf_counter()
            coordinator.close()
            thread.join(timeout=10.0)
            elapsed = time.perf_counter() - start
        assert not thread.is_alive()
        assert elapsed < 0.5, f"worker exited {elapsed:.3f} s after close()"
        assert outcome == {"code": 0}
        assert worker.reconnects == 0
        assert "connection lost" not in caplog.text


def _lease_all(coordinator, worker_id="owner"):
    """Run one lease's worth of figure 6 cells and lease them all to a raw
    client; returns (execute thread, outcome box, client socket, Batch)."""
    plan = experiment_plan("figure6", TINY)
    state = PlanState.pack(*resolve_data(plan.dataset, plan.cache_keys()))
    cells = expand_cells(plan)[:LEASE_CELLS]
    thread, box = _in_thread(lambda: coordinator.execute(plan, cells, state))
    sock, _ = _raw_handshake(coordinator.address, worker_id=worker_id)
    assignment = _await_plan(sock, worker_id)
    protocol.send_message(sock, protocol.GetBatch(assignment.plan_id, worker_id))
    lease = protocol.recv_message(sock)
    assert isinstance(lease, protocol.Batch) and len(lease.cells) == LEASE_CELLS
    return thread, box, sock, lease


def _finish_with_a_worker(coordinator, thread, box):
    """Let an honest worker run what is left of the plan; join the plan."""
    honest = FleetWorker(coordinator.address)
    threading.Thread(target=honest.run, daemon=True).start()
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert "error" not in box, box.get("error")


class TestLongPoll:
    """A GetPlan or GetBatch with no answer yet is held, not told to sleep."""

    def test_held_get_plan_is_answered_with_the_plan(self, monkeypatch):
        """A GetPlan sent while no plan runs gets the PlanAssignment once
        run_plan starts; it used to get an immediate NoPlan."""
        monkeypatch.setattr("repro.distributed.coordinator.LONG_POLL_S", 30.0)
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        with Coordinator(heartbeat_timeout=120.0) as coordinator:
            sock, _ = _raw_handshake(coordinator.address)
            with sock:
                protocol.send_message(sock, protocol.GetPlan("raw-client"))
                thread, box = _run_plan_async(plan, coordinator)
                reply = protocol.recv_message(sock)
            _finish_with_a_worker(coordinator, thread, box)
        assert isinstance(reply, protocol.PlanAssignment)
        assert reply.plan_id.startswith(plan.fingerprint)
        assert _rows(box["result"]) == _rows(serial)

    def test_no_plan_comes_only_after_a_full_hold(self):
        """With no plan coming, NoPlan arrives after LONG_POLL_S, not at
        once, so a worker that asks again at once cannot busy-loop."""
        with Coordinator() as coordinator:
            sock, _ = _raw_handshake(coordinator.address)
            with sock:
                start = time.monotonic()
                protocol.send_message(sock, protocol.GetPlan("raw-client"))
                reply = protocol.recv_message(sock)
                elapsed = time.monotonic() - start
        assert isinstance(reply, protocol.NoPlan)
        assert 0.9 * LONG_POLL_S <= elapsed < LONG_POLL_S + 1.0, elapsed

    def test_idle_worker_asks_about_once_per_hold(self, monkeypatch):
        """An idle FleetWorker sends no more GetPlans than one per hold."""
        asked: list = []
        request = FleetWorker._request

        def counting(self, sock, message):
            if isinstance(message, protocol.GetPlan):
                asked.append(time.monotonic())
            return request(self, sock, message)

        monkeypatch.setattr(FleetWorker, "_request", counting)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            _wait_for(lambda: asked, "the worker's first GetPlan")
            time.sleep(1.0)
            span = time.monotonic() - asked[0]
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(asked) <= span / LONG_POLL_S + 2, (len(asked), span)

    def test_held_get_batch_takes_a_dead_workers_lease(self, monkeypatch):
        """A GetBatch held while another worker owns the last lease gets
        those cells as soon as that worker's socket closes."""
        monkeypatch.setattr("repro.distributed.coordinator.LONG_POLL_S", 30.0)
        with Coordinator(heartbeat_timeout=120.0) as coordinator:
            thread, box, owner, lease = _lease_all(coordinator)
            waiter, _ = _raw_handshake(coordinator.address, worker_id="waiter")
            with waiter:
                _await_plan(waiter, "waiter")
                protocol.send_message(
                    waiter, protocol.GetBatch(lease.plan_id, "waiter"))
                time.sleep(0.1)  # held: every cell is leased to the owner
                start = time.monotonic()
                owner.close()
                reply = protocol.recv_message(waiter)
                elapsed = time.monotonic() - start
            _finish_with_a_worker(coordinator, thread, box)
        assert isinstance(reply, protocol.Batch)
        assert reply.cells == lease.cells
        assert elapsed < 1.0, f"the requeued lease came {elapsed:.3f} s late"

    def test_close_answers_a_held_get_plan_with_goodbye(self, monkeypatch):
        """close() wakes a held GetPlan with Goodbye at once."""
        monkeypatch.setattr("repro.distributed.coordinator.LONG_POLL_S", 30.0)
        coordinator = Coordinator(heartbeat_timeout=120.0)
        closer = threading.Thread(target=coordinator.close, daemon=True)
        try:
            sock, _ = _raw_handshake(coordinator.address)
            with sock:
                protocol.send_message(sock, protocol.GetPlan("raw-client"))
                time.sleep(0.1)  # held: no plan runs
                start = time.monotonic()
                closer.start()
                reply = protocol.recv_message(sock)
                elapsed = time.monotonic() - start
            closer.join(timeout=10.0)
            assert not closer.is_alive()
        finally:
            coordinator.close()
        assert isinstance(reply, protocol.Goodbye)
        assert elapsed < GOODBYE_WAIT_S / 2, f"Goodbye came after {elapsed:.3f} s"

    def test_holding_requests_is_not_heartbeat_silence(self):
        """A client that does nothing but hold GetBatch requests for 2 s
        under a 0.6 s heartbeat timeout is never expired: each request
        is read, so it refreshes the client's liveness, and no hold
        outlasts the timeout."""
        with Coordinator(heartbeat_timeout=0.6) as coordinator:
            thread, box, owner, lease = _lease_all(coordinator)
            stop = threading.Event()

            def _beat():  # the owner computes for ever, but stays alive
                while not stop.wait(0.1):
                    protocol.send_message(owner, protocol.Heartbeat("owner"))

            beats = threading.Thread(target=_beat, daemon=True)
            beats.start()
            holder, _ = _raw_handshake(coordinator.address, worker_id="holder")
            with holder:
                _await_plan(holder, "holder")
                replies = []
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    protocol.send_message(
                        holder, protocol.GetBatch(lease.plan_id, "holder"))
                    replies.append(protocol.recv_message(holder))
                registered = {w["worker_id"] for w in coordinator.worker_snapshot()}
                failed = coordinator.stats["workers_failed"]
            stop.set()
            beats.join(timeout=10.0)
            assert not beats.is_alive()
            owner.close()
            _finish_with_a_worker(coordinator, thread, box)
        assert all(isinstance(reply, protocol.Idle) for reply in replies)
        assert 1 <= len(replies) <= 2.0 / LONG_POLL_S + 2, len(replies)
        assert {"owner", "holder"} <= registered
        assert failed == 0

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), "x", 1e300])
    @pytest.mark.parametrize("tag", ["NoPlan", "Idle"])
    def test_a_sleep_order_is_a_protocol_error(self, tag, delay, monkeypatch):
        """A coordinator that still tells a worker to sleep speaks another
        protocol: the worker drops the connection, reconnects, and exits 0
        when that fails, without a traceback.  Such a delay used to reach
        time.sleep, which raised out of the worker (negative, NaN, a str)
        or hung it (1e300)."""
        errors: list = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: errors.append(args.exc_value))
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10.0)
            worker = FleetWorker(listener.getsockname()[:2], connect_timeout=5.0,
                                 heartbeat_interval=60.0, reconnect_attempts=1,
                                 reconnect_timeout=5.0)
            outcome: dict = {}
            thread = threading.Thread(
                target=lambda: outcome.update(code=worker.run()), daemon=True)
            thread.start()
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                assert isinstance(protocol.recv_message(conn), protocol.Hello)
                protocol.send_message(conn, protocol.Welcome("fake"))
                assert isinstance(protocol.recv_message(conn), protocol.GetPlan)
                if tag == "Idle":
                    protocol.send_message(conn, _assignment())
                    assert isinstance(protocol.recv_message(conn),
                                      protocol.GetBatch)
                conn.sendall(_frame(_forged_struct(tag, delay=delay)))
                again, _ = listener.accept()  # the worker reconnects ...
            again.close()  # ... to a coordinator that is gone
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome == {"code": 0}
        assert errors == []


class TestRemoteExecutor:
    def test_remote_is_a_registered_executor(self):
        assert "remote" in EXECUTORS

    def test_in_process_fleet_bit_identical(self):
        """Three workers over real sockets == serial, and the fleet survives
        a second plan on the same connections (per-plan memo reuse)."""
        serial6 = run_experiment("figure6", TINY)
        serial8 = run_experiment("figure8", TINY)
        with Coordinator() as coordinator:
            # Slow cells keep one worker from draining a plan before the
            # others have rebuilt the plan's state.
            workers = [FleetWorker(coordinator.address, cell_delay=0.05)
                       for _ in range(3)]
            threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
            for thread in threads:
                thread.start()
            _wait_for(lambda: coordinator.load()["workers"] == 3,
                      "all three workers to register")
            remote6 = run_experiment("figure6", TINY, executor="remote",
                                     fleet=coordinator)
            remote8 = run_experiment("figure8", TINY, executor="remote",
                                     fleet=coordinator)
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert _rows(remote6) == _rows(serial6)
        assert _rows(remote8) == _rows(serial8)
        # Work was actually distributed, not funneled through one worker.
        assert sum(w.cells_evaluated for w in workers) == 12 + 12
        assert sum(w.plans_served > 0 for w in workers) >= 2

    def test_local_subprocess_fleet_bit_identical(self, tmp_path):
        """The acceptance criterion: `--executor remote --jobs 2` == serial."""
        serial = run_experiment("figure5", TINY, store=str(tmp_path))
        remote = run_experiment("figure5", TINY, executor="remote", jobs=2,
                                store=str(tmp_path))
        assert _rows(remote) == _rows(serial)

    def test_run_all_shares_one_throwaway_fleet(self, monkeypatch):
        """``run_all(executor="remote", jobs=2)`` without a fleet opens one
        coordinator, and its two workers, for the whole sequence instead
        of one per experiment; the rows still equal serial."""
        made = []
        init = Coordinator.__init__

        def counting_init(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Coordinator, "__init__", counting_init)
        names = ("figure5", "figure6", "figure7")
        remote = run_all(TINY, names, executor="remote", jobs=2)
        assert len(made) == 1
        serial = run_all(TINY, names)
        for name in names:
            assert _rows(remote[name]) == _rows(serial[name])

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("run", [
        lambda **options: run_experiment("figure5", TINY, **options),
        lambda **options: run_all(TINY, ("figure5",), **options),
    ], ids=["run_experiment", "run_all"])
    def test_fleet_requires_the_remote_executor(self, executor, run):
        """A fleet passed with another executor is an error before any
        cell runs; it used to be ignored while the cells ran elsewhere."""
        with Coordinator() as coordinator:
            with pytest.raises(ValueError, match="remote"):
                run(executor=executor, jobs=1, fleet=coordinator)
            assert coordinator.stats["results_received"] == 0

    def test_worker_sigkill_mid_plan_requeues(self, tmp_path):
        """Kill a worker process mid-plan: its leased cells are requeued and
        the merged result is still bit-identical to serial."""
        store = DatasetStore(tmp_path)
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan, store=store)
        with Coordinator(heartbeat_timeout=30.0) as coordinator:
            procs = coordinator.spawn_local_workers(2, cell_delay=0.4)
            pids = {proc.pid for proc in procs}
            killed: list[int] = []

            def _assassin():
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    for worker in coordinator.worker_snapshot():
                        if worker["pid"] in pids and worker["lease"] > 0:
                            time.sleep(0.15)  # now provably mid-batch
                            os.kill(worker["pid"], signal.SIGKILL)
                            killed.append(worker["pid"])
                            return
                    time.sleep(0.02)

            assassin = threading.Thread(target=_assassin, daemon=True)
            assassin.start()
            remote = run_plan(plan, workers=coordinator, store=store)
            assassin.join(timeout=5.0)
        assert killed, "no worker held a lease to kill"
        assert coordinator.stats["workers_failed"] >= 1
        assert coordinator.stats["requeued_cells"] >= 1
        assert _rows(remote) == _rows(serial)

    def test_heartbeat_timeout_requeues_silent_worker(self):
        """A worker that stops heartbeating (without dying) loses its lease."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        coordinator = Coordinator(heartbeat_timeout=0.6)
        try:
            thread, box = _run_plan_async(plan, coordinator)
            sock, welcome = _raw_handshake(coordinator.address, worker_id="silent")
            assert isinstance(welcome, protocol.Welcome)
            assignment = _await_plan(sock, worker_id="silent")
            protocol.send_message(sock, protocol.GetBatch(assignment.plan_id, "silent"))
            batch = protocol.recv_message(sock)
            assert isinstance(batch, protocol.Batch) and batch.cells
            # Go silent (socket stays open), then let an honest worker finish.
            honest = FleetWorker(coordinator.address)
            honest_thread = threading.Thread(target=honest.run, daemon=True)
            honest_thread.start()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            sock.close()
        finally:
            coordinator.close()
        assert "error" not in box, box.get("error")
        assert coordinator.stats["requeued_cells"] >= len(batch.cells)
        assert coordinator.stats["workers_failed"] >= 1
        assert honest.cells_evaluated == len(expand_cells(plan))
        assert _rows(box["result"]) == _rows(serial)

    def test_retry_exhaustion_is_a_hard_error(self):
        """A cell whose every lease dies exhausts max_retries and fails the plan."""
        plan = experiment_plan("figure6", TINY)
        coordinator = Coordinator(max_retries=0)
        try:
            thread, box = _run_plan_async(plan, coordinator)
            sock, welcome = _raw_handshake(coordinator.address, worker_id="dying")
            assert isinstance(welcome, protocol.Welcome)
            assignment = _await_plan(sock, worker_id="dying")
            protocol.send_message(sock, protocol.GetBatch(assignment.plan_id, "dying"))
            assert isinstance(protocol.recv_message(sock), protocol.Batch)
            sock.close()  # die with the lease held
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        finally:
            coordinator.close()
        assert isinstance(box.get("error"), RuntimeError)
        assert "max_retries" in str(box["error"])

    def test_all_local_workers_dead_fails_fast(self):
        """A purely-local fleet with no survivors aborts instead of hanging."""
        plan = experiment_plan("figure6", TINY)
        with Coordinator() as coordinator:
            procs = coordinator.spawn_local_workers(1, cell_delay=5.0)
            thread, box = _run_plan_async(plan, coordinator)
            deadline = time.monotonic() + 60.0
            while not coordinator.worker_snapshot() and time.monotonic() < deadline:
                time.sleep(0.02)
            for proc in procs:
                proc.kill()
                proc.wait()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert isinstance(box.get("error"), RuntimeError)
        assert "exited" in str(box["error"])


def _probe_thread(monkeypatch, thread: threading.Thread) -> dict:
    """Count store opens, cache warms and dataset builds made by *thread*.

    An in-process worker shares the process with the coordinator and the
    driver, so only calls made on the worker's own thread are counted.
    """
    from repro.analytical.cache import AnalyticalPredictionCache

    counts = {"stores": 0, "warms": 0, "builds": 0}
    for cls, name, key in ((DatasetStore, "__init__", "stores"),
                           (AnalyticalPredictionCache, "warm", "warms"),
                           (DatasetSpec, "build", "builds")):
        def counting(self, *args, _original=getattr(cls, name), _key=key,
                     **kwargs):
            if threading.current_thread() is thread:
                counts[_key] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    return counts


class TestStoreBootstrap:
    """How a worker gets a plan's inputs: by value, never from a store."""

    def test_cold_worker_bootstraps_without_simulating(self, tmp_path,
                                                       monkeypatch):
        """A cold, store-less worker serving a plan whose driver runs on a
        cold file store opens no store, warms no cache and builds no
        dataset: the plan assignment carries all it needs."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            counts = _probe_thread(monkeypatch, thread)
            driver = _probe_thread(monkeypatch, threading.current_thread())
            thread.start()
            remote = run_plan(plan, workers=coordinator, store=DatasetStore(tmp_path))
        thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        assert worker.cells_evaluated == len(expand_cells(plan))
        assert counts == {"stores": 0, "warms": 0, "builds": 0}
        # The probes are live: the driver opened, simulated and warmed once.
        assert driver == {"stores": 1, "warms": 1, "builds": 1}
        # One assignment carried the dataset and the plan's one cache.
        assert coordinator.stats["datasets_served"] == 1
        assert coordinator.stats["caches_served"] == 1

    def test_storeless_worker_runs_from_memory(self):
        """A worker rebuilds the plan state in memory, nothing simulated."""
        plan = experiment_plan("figure5", TINY)
        serial = run_plan(plan)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, workers=coordinator)
        thread.join(timeout=10.0)
        assert len(worker._memo) == 1
        assert coordinator.stats["datasets_served"] == 1
        assert _rows(remote) == _rows(serial)

    def test_dataset_bytes_round_trip(self, tmp_path):
        """The bytes a store writes are ``encode_dataset``'s, and a second
        store on the same directory reads them back without simulating."""
        import numpy as np

        store = DatasetStore(tmp_path)
        spec = experiment_plan("figure6", TINY).dataset
        dataset = store.get(spec)
        data = store.backend.read(store.dataset_key(spec))
        assert data == DatasetStore.encode_dataset(dataset)
        other = DatasetStore(tmp_path)
        loaded = other.get(spec)
        assert (other.misses, other.hits) == (0, 1)
        np.testing.assert_array_equal(loaded.X, dataset.X)
        np.testing.assert_array_equal(loaded.y, dataset.y)
        assert loaded.feature_names == dataset.feature_names

    def test_memo_keeps_the_pool_limit(self):
        """Serving one more distinct plan than the limit evicts the
        oldest: the fleet worker's memo is bounded like a pool worker's."""
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            for seed in range(_WORKER_STATE_LIMIT + 1):
                settings = dataclasses.replace(TINY, random_state=seed)
                run_plan(experiment_plan("figure7", settings), workers=coordinator)
        thread.join(timeout=10.0)
        assert len(worker._memo) == _WORKER_STATE_LIMIT
        assert worker._memo.evictions == 1


def _forged_state(**fields) -> PlanState:
    """A ``PlanState`` built around its own checks, as a hostile peer sends it."""
    state = object.__new__(PlanState)
    values = dict(dataset_name="d", feature_names=("a", "b"),
                  X=bytes(8 * 6), y=bytes(8 * 3),
                  cache_values=(("stencil", bytes(8 * 3)),), digest="0" * 64)
    values.update(fields)
    for field in dataclasses.fields(PlanState):
        object.__setattr__(state, field.name, values[field.name])
    return state


_MALFORMED_STATES = {
    "short-X": {"X": bytes(8 * 5)},
    "ragged-y": {"y": bytes(8 * 3 + 1)},
    "short-cache": {"cache_values": (("stencil", bytes(8 * 2)),)},
    "str-X": {"X": "x" * 48},
    "list-names": {"feature_names": ["a", "b"]},
    "int-name": {"dataset_name": 7},
    "list-cache": {"cache_values": [("stencil", bytes(8 * 3))]},
    "str-cache-values": {"cache_values": (("stencil", "v" * 24),)},
    "unpaired-cache": {"cache_values": (("stencil",),)},
}


class TestPlanStateWire:
    """The plan state as wire input: validated on decode, exact on success."""

    def test_round_trip_matches_the_pickled_pool_state(self):
        """The schema codec and the pool's pickle carry the same state:
        same digest, bit-identical arrays once unpacked."""
        import pickle

        plan = experiment_plan("ablation_analytical_quality", TINY)
        state = PlanState.pack(*resolve_data(plan.dataset, plan.cache_keys()))
        wire = codec.decode_value(codec.encode_value(state))
        pooled = pickle.loads(pickle.dumps(state))
        assert wire.digest == pooled.digest == state.digest
        assert wire == pooled
        (wire_data, wire_caches), (pool_data, pool_caches) = (
            wire.unpack(), pooled.unpack())
        assert wire_data.X.tobytes() == pool_data.X.tobytes()
        assert wire_data.X.shape == pool_data.X.shape
        assert wire_data.y.tobytes() == pool_data.y.tobytes()
        assert list(wire_caches) == list(pool_caches) != []
        for key, cache in wire_caches.items():
            assert (cache.predict(wire_data.X).tobytes()
                    == pool_caches[key].predict(pool_data.X).tobytes())

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.integers(0, 4), features=st.integers(0, 3),
           x_delta=st.integers(-9, 9), y_delta=st.integers(-9, 9),
           cache_delta=st.integers(-9, 9),
           wrong=st.sampled_from([None, "dataset_name", "feature_names", "X",
                                  "y", "cache_values", "digest"]),
           junk=st.one_of(st.integers(), st.text(max_size=4),
                          st.lists(st.binary(max_size=8), max_size=2),
                          st.none(), st.floats(allow_nan=False)))
    def test_malformed_state_fails_decoding(self, rows, features, x_delta,
                                            y_delta, cache_delta, wrong, junk):
        """Wrong lengths, wrong types or non-bytes fields: the decoder
        raises ``CodecError`` and ``recv_message`` ``ProtocolError``."""
        x_len = max(0, 8 * rows * features + x_delta)
        y_len = max(0, 8 * rows + y_delta)
        cache_len = max(0, 8 * rows + cache_delta)
        fields = dict(feature_names=tuple(f"f{i}" for i in range(features)),
                      X=bytes(x_len), y=bytes(y_len),
                      cache_values=(("stencil", bytes(cache_len)),))
        typed = wrong is None or (wrong in ("dataset_name", "digest")
                                  and isinstance(junk, str))
        if wrong is not None:
            fields[wrong] = junk
        valid = (typed and y_len % 8 == 0 and x_len == y_len * features
                 and cache_len == y_len)
        assignment = protocol.PlanAssignment(
            "plan", experiment_plan("figure6", TINY), _forged_state(**fields))
        payload = codec.encode_value(assignment)
        if valid:
            assert codec.decode_value(payload) == assignment
            return
        with pytest.raises(codec.CodecError):
            codec.decode_value(payload)
        left, right = socket.socketpair()
        try:
            left.sendall(_frame(payload))
            with pytest.raises(protocol.ProtocolError):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("fields", list(_MALFORMED_STATES.values()),
                             ids=list(_MALFORMED_STATES))
    def test_malformed_assignment_never_kills_a_worker(self, fields,
                                                       monkeypatch):
        """A coordinator answering GetPlan with a malformed state: the
        worker drops the connection as a protocol error and exits cleanly
        once its reconnect budget is spent; its thread never crashes."""
        errors: list = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: errors.append(args.exc_value))
        assignment = protocol.PlanAssignment(
            "plan", experiment_plan("figure6", TINY), _forged_state(**fields))
        with socket.create_server(("127.0.0.1", 0)) as listener:
            worker = FleetWorker(listener.getsockname()[:2], connect_timeout=5.0,
                                 reconnect_attempts=0)
            outcome: dict = {}
            thread = threading.Thread(
                target=lambda: outcome.update(code=worker.run()), daemon=True)
            thread.start()
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                assert isinstance(protocol.recv_message(conn), protocol.Hello)
                protocol.send_message(conn, protocol.Welcome("fake"))
                assert isinstance(protocol.recv_message(conn), protocol.GetPlan)
                conn.sendall(_frame(codec.encode_value(assignment)))
                thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome == {"code": 0}
        assert errors == []
        assert worker.plans_served == 0

    @pytest.mark.parametrize("case", ["unknown-cache-key", "unknown-estimator",
                                      "unknown-factory-kind",
                                      "hybrid-without-model", "unknown-series"])
    def test_unresolvable_assignment_never_kills_a_worker(self, case,
                                                          monkeypatch):
        """A well-formed assignment whose content this build cannot
        resolve (an unregistered analytical model, estimator or factory
        kind, or a leased cell of a series the plan lacks) is a protocol
        error: the worker drops the connection and exits cleanly once its
        reconnect budget is spent; its thread never crashes."""
        errors: list = []
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: errors.append(args.exc_value))
        real = _assignment()
        plan, state = real.plan, real.state
        hybrid = next(i for i, spec in enumerate(plan.series)
                      if spec.factory.kind == "hybrid")
        spec = plan.series[hybrid]
        factory = {
            "unknown-estimator": dataclasses.replace(
                spec.factory, estimator=dataclasses.replace(
                    spec.factory.estimator, name="no-such-estimator")),
            "unknown-factory-kind": dataclasses.replace(
                spec.factory, kind="no-such-kind"),
            "hybrid-without-model": dataclasses.replace(
                spec.factory, analytical=None),
        }.get(case, spec.factory)
        series = list(plan.series)
        series[hybrid] = dataclasses.replace(spec, factory=factory)
        plan = dataclasses.replace(plan, series=tuple(series))
        if case == "unknown-cache-key":
            state = dataclasses.replace(state, cache_values=tuple(
                ("no-such-model", values) for _, values in state.cache_values))
        assignment = protocol.PlanAssignment(real.plan_id, plan, state)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            worker = FleetWorker(listener.getsockname()[:2], connect_timeout=5.0,
                                 heartbeat_interval=60.0, reconnect_attempts=0)
            outcome: dict = {}
            thread = threading.Thread(
                target=lambda: outcome.update(code=worker.run()), daemon=True)
            thread.start()
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                assert isinstance(protocol.recv_message(conn), protocol.Hello)
                protocol.send_message(conn, protocol.Welcome("fake"))
                assert isinstance(protocol.recv_message(conn), protocol.GetPlan)
                protocol.send_message(conn, assignment)
                try:
                    request = protocol.recv_message(conn)
                except ConnectionError:
                    request = None  # the worker hung up on the assignment
                if isinstance(request, protocol.GetBatch):
                    cell = next(cell for cell in expand_cells(plan)
                                if cell.factory_key == spec.label)
                    if case == "unknown-series":
                        cell = dataclasses.replace(cell, factory_key="no-such-series")
                    protocol.send_message(conn, protocol.Batch(real.plan_id, (cell,)))
                thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome == {"code": 0}
        assert errors == []
        assert worker.cells_evaluated == 0


class TestObjectStoreBootstrap:
    """A fleet whose driver runs on the bundled S3-style object store."""

    @pytest.fixture()
    def object_store(self):
        from repro.datasets.backends import MemoryBackend
        from repro.datasets.object_server import ObjectStoreServer

        with ObjectStoreServer(MemoryBackend()) as server:
            yield server

    def test_storeless_worker_bootstraps_from_object_store(self, object_store,
                                                           monkeypatch):
        """The coordinator's store is the object server and the worker
        opens none: the plan state read from the object store reaches the
        worker inside the plan assignment, and rows match serial."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        shared = DatasetStore(object_store.url)
        warm = run_plan(plan, store=shared)  # seeds the object store
        assert _rows(warm) == _rows(serial)
        puts_before = object_store.stats["puts"]
        gets_before = object_store.stats["gets"]

        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            counts = _probe_thread(monkeypatch, thread)
            thread.start()
            remote = run_plan(plan, workers=coordinator,
                              store=DatasetStore(object_store.url))
        thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        assert counts == {"stores": 0, "warms": 0, "builds": 0}
        # The driver read the dataset and its cache; nothing was written.
        assert object_store.stats["gets"] - gets_before >= 2
        assert object_store.stats["puts"] == puts_before
        assert coordinator.stats["datasets_served"] == 1
        assert coordinator.stats["caches_served"] == 1

    def test_prune_works_on_object_store(self, object_store):
        """`--store-prune` semantics are backend-independent."""
        live = experiment_plan("figure6", TINY).dataset
        stale = experiment_plan(
            "figure6", ExperimentSettings(max_configs=77)).dataset
        store = DatasetStore(object_store.url)
        store.get(live)
        store.get(stale)
        removed = store.prune(keep_fingerprints={live.fingerprint})
        assert removed == [store.dataset_key(stale)]
        fresh = DatasetStore(object_store.url)
        fresh.get(live)
        assert (fresh.misses, fresh.hits) == (0, 1)


class TestFleetWorkerCli:
    def test_unreachable_coordinator_exits_nonzero(self):
        from repro.distributed.worker import main

        # Port 1 on loopback refuses immediately; the retry window is tiny.
        assert main(["--connect", "127.0.0.1:1", "--connect-timeout", "0.2"]) == 1

    def test_fleet_worker_subcommand_delegates(self):
        from repro.experiments.__main__ import main

        assert main(["fleet-worker", "--connect", "127.0.0.1:1",
                     "--connect-timeout", "0.2"]) == 1

    def test_cli_remote_run_with_prune(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        args = ["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                "--store-dir", str(tmp_path), "--store-prune"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "figure6" in out and "hybrid" in out
        assert "store prune" in out
        assert (tmp_path / "datasets").exists()

    def test_cli_flag_validation(self, tmp_path):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure6", "--quick", "--executor", "process", "--workers", "2"])
        with pytest.raises(SystemExit):
            main(["figure6", "--quick", "--store-prune"])


class TestFaultTolerance:
    """A dropped coordinator connection is survived."""

    def test_worker_reconnects_after_connection_cut(self):
        """A severed coordinator connection is survived: the worker
        re-handshakes (same id, memo intact) and serves the next plan."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, reconnect_attempts=5,
                                 reconnect_timeout=5.0)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote1 = run_plan(plan, workers=coordinator)
            with coordinator._lock:
                infos = list(coordinator._workers.values())
            assert infos
            for info in infos:
                coordinator._sever(info)
            deadline = time.monotonic() + 20.0
            while worker.reconnects == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert worker.reconnects >= 1
            remote2 = run_plan(plan, workers=coordinator)
        thread.join(timeout=10.0)
        assert _rows(remote1) == _rows(serial)
        assert _rows(remote2) == _rows(serial)


class TestSpeculation:
    def test_straggler_lease_is_speculatively_duplicated(self, monkeypatch):
        """A worker that holds a lease forever does not stall the plan: once
        the queue drains, its overdue cells are re-leased to a healthy
        worker and dedupe-by-key keeps the duplication harmless."""
        monkeypatch.setattr(
            "repro.distributed.coordinator.SPECULATION_MIN_DELAY_S", 0.2)
        monkeypatch.setattr("repro.distributed.coordinator.SPECULATION_FACTOR", 1.5)
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        total = len(expand_cells(plan))
        coordinator = Coordinator(heartbeat_timeout=30.0)
        try:
            thread, box = _run_plan_async(plan, coordinator)
            sock, welcome = _raw_handshake(coordinator.address,
                                           worker_id="straggler")
            assert isinstance(welcome, protocol.Welcome)
            assignment = _await_plan(sock, worker_id="straggler")
            protocol.send_message(
                sock, protocol.GetBatch(assignment.plan_id, "straggler"))
            batch = protocol.recv_message(sock)
            assert isinstance(batch, protocol.Batch) and batch.cells
            # Hold the lease forever (the socket stays open, no results
            # ever come) while an honest worker drains the queue.
            honest = FleetWorker(coordinator.address)
            honest_thread = threading.Thread(target=honest.run, daemon=True)
            honest_thread.start()
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            sock.close()
        finally:
            coordinator.close()
        assert "error" not in box, box.get("error")
        assert coordinator.stats["speculative_releases"] >= 1
        # The honest worker really raced the straggler's cells — it
        # evaluated the whole plan, including the held lease.
        assert honest.cells_evaluated == total
        assert _rows(box["result"]) == _rows(serial)


def _scrape(status) -> dict:
    with urllib.request.urlopen(status.url + "/metrics", timeout=10.0) as response:
        assert response.status == 200
        return parse_prometheus(response.read().decode("utf-8"))


class TestWorkerMetricsSnapshots:
    def test_malformed_heartbeat_snapshot_severs_the_worker(self):
        """A snapshot that would break every render fails decoding: its
        connection is severed, nothing is stored, ``/metrics`` stays 200."""
        forged = object.__new__(MetricsSnapshot)
        object.__setattr__(forged, "data", {"x_total": "junk"})
        with Coordinator() as coordinator:
            status = coordinator.serve_status()
            try:
                sock, reply = _raw_handshake(coordinator.address)
                assert isinstance(reply, protocol.Welcome)
                sock.settimeout(5.0)
                protocol.send_message(
                    sock, protocol.Heartbeat("raw-client", metrics=forged))
                with pytest.raises(protocol.ConnectionClosed):
                    protocol.recv_message(sock)
                sock.close()
                scraped = _scrape(status)
            finally:
                status.stop()
        assert ("repro_cells_completed_total", ()) in scraped
        assert not any(name == "x_total" for name, _ in scraped)

    def test_conflicting_snapshot_is_left_out_of_metrics(self):
        """A well-formed snapshot that declares a worker counter a gauge
        does not merge with the others: it is left out, and the other
        worker's series and the coordinator's own are still served."""
        good, bad = MetricsRegistry(), MetricsRegistry()
        good.counter("repro_worker_cells_evaluated_total").inc(3)
        bad.gauge("repro_worker_cells_evaluated_total").set(1)
        socks = []
        with Coordinator() as coordinator:
            status = coordinator.serve_status()
            try:
                for worker_id, registry in (("good", good), ("bad", bad)):
                    sock, _ = _raw_handshake(coordinator.address,
                                             worker_id=worker_id)
                    socks.append(sock)
                    protocol.send_message(sock, protocol.Heartbeat(
                        worker_id, metrics=registry.snapshot()))
                    # The reply to a later request means the heartbeat
                    # before it was handled.
                    protocol.send_message(sock, protocol.GetPlan(worker_id))
                    assert isinstance(protocol.recv_message(sock),
                                      protocol.NoPlan)
                scraped = _scrape(status)
            finally:
                for sock in socks:
                    sock.close()
                status.stop()
        evaluated = "repro_worker_cells_evaluated_total"
        assert scraped[(evaluated, (("worker", "good"),))] == 3
        assert scraped[(evaluated, (("worker", "fleet"),))] == 3
        assert (evaluated, (("worker", "bad"),)) not in scraped
        assert ("repro_cells_completed_total", ()) in scraped


    def test_fleet_series_is_the_sum_of_the_workers(self):
        evaluated = "repro_worker_cells_evaluated_total"
        socks = []
        with Coordinator() as coordinator:
            status = coordinator.serve_status()
            try:
                for worker_id, cells in (("a", 5), ("b", 7)):
                    registry = MetricsRegistry()
                    registry.counter(evaluated).inc(cells)
                    sock, _ = _raw_handshake(coordinator.address,
                                             worker_id=worker_id)
                    socks.append(sock)
                    protocol.send_message(sock, protocol.Heartbeat(
                        worker_id, metrics=registry.snapshot()))
                    protocol.send_message(sock, protocol.GetPlan(worker_id))
                    assert isinstance(protocol.recv_message(sock),
                                      protocol.NoPlan)
                scraped = _scrape(status)
            finally:
                for sock in socks:
                    sock.close()
                status.stop()
        assert scraped[(evaluated, (("worker", "a"),))] == 5
        assert scraped[(evaluated, (("worker", "b"),))] == 7
        assert scraped[(evaluated, (("worker", FLEET_LABEL),))] == 5 + 7


class TestFleetKnobCli:
    def test_knobs_require_remote_executor(self):
        from repro.experiments.__main__ import main

        for flag, value in [("--heartbeat-timeout", "5"), ("--max-retries", "1")]:
            with pytest.raises(SystemExit):
                main(["figure6", "--quick", flag, value])

    def test_knob_value_validation(self):
        from repro.experiments.__main__ import main

        base = ["figure6", "--quick", "--executor", "remote", "--jobs", "1"]
        for flag, bad in [("--heartbeat-timeout", "0"), ("--max-retries", "-1")]:
            with pytest.raises(SystemExit):
                main(base + [flag, bad])

    def test_knobs_reach_the_coordinator(self, monkeypatch):
        from repro.experiments.__main__ import main

        captured = {}

        class _Probe:
            def __init__(self, **kwargs):
                captured.update(kwargs)
                raise RuntimeError("probe stop")

        monkeypatch.setattr("repro.distributed.coordinator.Coordinator", _Probe)
        with pytest.raises(RuntimeError, match="probe stop"):
            main(["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                  "--heartbeat-timeout", "2.5", "--max-retries", "7"])
        assert captured["heartbeat_timeout"] == 2.5
        assert captured["max_retries"] == 7

    def test_worker_cli_rejects_bad_retry_knobs(self):
        from repro.distributed.worker import main

        with pytest.raises(SystemExit):  # workers fetch nothing to retry
            main(["--connect", "127.0.0.1:1", "--max-retries", "3"])
        with pytest.raises(SystemExit):
            main(["--connect", "127.0.0.1:1", "--reconnect-attempts", "-1"])

    def test_worker_cli_rejects_the_fleet_label_as_id(self):
        from repro.distributed.worker import main

        with pytest.raises(SystemExit) as exc:  # before it tries to connect
            main(["--connect", "127.0.0.1:1", "--worker-id", FLEET_LABEL])
        assert exc.value.code == 2
