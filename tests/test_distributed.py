"""Tests for the distributed worker-fleet executor (`repro.distributed`).

The guarantees under test:

* the ``remote`` executor produces ``ExperimentResult`` rows **bit-identical**
  to the serial executor — for a clean fleet, for a fleet whose worker is
  SIGKILLed mid-plan (leased cells are requeued), and for a worker whose
  heartbeat goes silent;
* the HELLO handshake rejects protocol-version and store-format-version
  mismatches instead of exchanging incompatible artifacts;
* cold-store workers bootstrap the dataset and warmed analytical caches
  without ever re-simulating (store hit counters) — directly from the
  store the coordinator advertises when it is shareable, through
  coordinator relay frames otherwise (and as fallback when the
  advertised store is unreachable);
* a cell that exhausts its requeue budget fails the plan with a hard
  error rather than hanging the coordinator.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.datasets.store import _FORMAT_VERSION, DatasetStore, _simulator_versions
from repro.distributed import protocol
from repro.distributed.coordinator import Coordinator
from repro.distributed.protocol import PROTOCOL_VERSION, parse_address
from repro.distributed.worker import FleetWorker
from repro.experiments import ExperimentSettings, run_experiment
from repro.experiments.plan import expand_cells, experiment_plan
from repro.experiments.scheduler import EXECUTORS, run_plan

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
    """Poll GetPlan on a raw client until a PlanAssignment arrives."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        protocol.send_message(sock, protocol.GetPlan(worker_id))
        reply = protocol.recv_message(sock)
        if isinstance(reply, protocol.PlanAssignment):
            return reply
        time.sleep(0.05)
    raise AssertionError("no plan became active in time")


def _run_plan_async(plan, coordinator, **kwargs):
    """run_plan(executor='remote') in a thread; returns (thread, outcome box)."""
    box: dict = {}

    def _target():
        try:
            box["result"] = run_plan(plan, executor="remote", fleet=coordinator,
                                     **kwargs)
        except BaseException as exc:  # noqa: BLE001 - surfaced via the box
            box["error"] = exc

    thread = threading.Thread(target=_target, daemon=True)
    thread.start()
    return thread, box


class TestProtocol:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            messages = [
                protocol.Hello(PROTOCOL_VERSION, _FORMAT_VERSION, "w1", 123),
                protocol.Heartbeat("w1"),
                protocol.DatasetBlob("abc", os.urandom(1 << 17)),
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


class TestRemoteExecutor:
    def test_remote_is_a_registered_executor(self):
        assert "remote" in EXECUTORS

    def test_in_process_fleet_bit_identical(self):
        """Three workers over real sockets == serial, and the fleet survives
        a second plan on the same connections (per-plan memo reuse)."""
        serial6 = run_experiment("figure6", TINY)
        serial8 = run_experiment("figure8", TINY)
        with Coordinator() as coordinator:
            workers = [FleetWorker(coordinator.address) for _ in range(3)]
            threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
            for thread in threads:
                thread.start()
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

    def test_auto_leases_bit_identical(self):
        """``batch_size="auto"`` (cost-budget leases, expensive-first
        queue) changes only the lease shapes: rows match serial and every
        cell is evaluated exactly as often as the fixed-size path."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        with Coordinator(batch_size="auto") as coordinator:
            workers = [FleetWorker(coordinator.address) for _ in range(2)]
            threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
            for thread in threads:
                thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator)
        for thread in threads:
            thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        assert sum(w.cells_evaluated for w in workers) == len(expand_cells(plan))

    def test_batch_size_validation(self):
        for bad in (0, -1, "bogus", True, 2.5):
            with pytest.raises(ValueError, match="batch_size"):
                Coordinator(batch_size=bad)

    def test_worker_sigkill_mid_plan_requeues(self, tmp_path):
        """Kill a worker process mid-plan: its leased cells are requeued and
        the merged result is still bit-identical to serial."""
        store = DatasetStore(tmp_path)
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan, store=store)
        with Coordinator(batch_size=2, heartbeat_timeout=30.0) as coordinator:
            procs = coordinator.spawn_local_workers(2, store_dir=tmp_path,
                                                    cell_delay=0.4)
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
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              store=store)
            assassin.join(timeout=5.0)
        assert killed, "no worker held a lease to kill"
        assert coordinator.stats["workers_failed"] >= 1
        assert coordinator.stats["requeued_cells"] >= 1
        assert _rows(remote) == _rows(serial)

    def test_heartbeat_timeout_requeues_silent_worker(self):
        """A worker that stops heartbeating (without dying) loses its lease."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        coordinator = Coordinator(batch_size=4, heartbeat_timeout=0.6)
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
        coordinator = Coordinator(batch_size=2, max_retries=0)
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

    def test_all_local_workers_dead_fails_fast(self, tmp_path):
        """A purely-local fleet with no survivors aborts instead of hanging."""
        plan = experiment_plan("figure6", TINY)
        with Coordinator() as coordinator:
            procs = coordinator.spawn_local_workers(1, store_dir=tmp_path,
                                                    cell_delay=5.0)
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


class TestStoreBootstrap:
    def test_cold_worker_bootstraps_without_simulating(self, tmp_path):
        """Acceptance: a cold --store-dir worker downloads the dataset and
        warmed caches — directly from the advertised parent store (zero
        relay frames through the coordinator); its store never generates."""
        parent = DatasetStore(tmp_path / "parent")
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan, store=parent)

        worker_store = DatasetStore(tmp_path / "worker")
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, store=worker_store)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              store=parent)
        thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        # The worker's store was populated by download, not simulation:
        # `misses` counts generations, `cache_misses` counts warm-ups.
        assert worker_store.misses == 0 and worker_store.cache_misses == 0
        assert worker_store.hits >= 1 and worker_store.cache_hits >= 1
        # The parent store is a shareable file:// locator, so the worker
        # bootstrapped directly from it: zero relay frames.
        assert (worker.direct_fetches, worker.relay_fetches) == (2, 0)
        assert coordinator.stats["datasets_served"] == 0
        assert coordinator.stats["caches_served"] == 0
        assert worker_store.dataset_path(plan.dataset).exists()
        assert worker_store.cache_path("stencil", plan.dataset).exists()

        # A fresh worker on the now-warm store needs no bootstrap traffic.
        warm_store = DatasetStore(tmp_path / "worker")
        with Coordinator() as coordinator2:
            worker2 = FleetWorker(coordinator2.address, store=warm_store)
            thread2 = threading.Thread(target=worker2.run, daemon=True)
            thread2.start()
            remote2 = run_plan(plan, executor="remote", fleet=coordinator2,
                               store=parent)
        thread2.join(timeout=10.0)
        assert _rows(remote2) == _rows(serial)
        assert coordinator2.stats["datasets_served"] == 0
        assert coordinator2.stats["caches_served"] == 0
        assert (worker2.direct_fetches, worker2.relay_fetches) == (0, 0)
        assert warm_store.misses == 0 and warm_store.cache_misses == 0

    def test_unreachable_advertised_store_falls_back_to_relay(self, tmp_path,
                                                              monkeypatch):
        """A worker that cannot reach the advertised store still bootstraps
        through the coordinator's FetchDataset/FetchCache relay frames."""
        parent = DatasetStore(tmp_path)
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan, store=parent)
        # Advertise a locator nothing listens on (port 1 refuses instantly).
        monkeypatch.setattr(
            type(parent.backend), "locator",
            property(lambda self: "http://127.0.0.1:1/"))
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              store=parent)
        thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        assert (worker.direct_fetches, worker.relay_fetches) == (0, 2)
        assert coordinator.stats["datasets_served"] == 1
        assert coordinator.stats["caches_served"] == 1

    def test_dataset_override_bypasses_warm_worker_store(self, tmp_path):
        """An explicit dataset override has no registered fingerprint: a
        worker whose store already holds the *spec's* dataset must fetch
        the override blob instead of serving the stale store entry."""
        from repro.datasets import DatasetSpec

        plan = experiment_plan("figure6", TINY)
        parent = DatasetStore(tmp_path)
        run_plan(plan, store=parent)  # warm the store with the spec dataset
        override = DatasetSpec("stencil-blocked", max_configs=100,
                               random_state=0).build()
        assert override.n_samples != parent.get(plan.dataset).n_samples
        serial = run_plan(plan, dataset=override)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, store=DatasetStore(tmp_path))
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              dataset=override)
        thread.join(timeout=10.0)
        assert coordinator.stats["datasets_served"] == 1  # fetched, not store-read
        assert _rows(remote) == _rows(serial)
        # The override never leaks into the worker's persistent store.
        fresh = DatasetStore(tmp_path)
        assert fresh.get(plan.dataset).n_samples != override.n_samples

    def test_storeless_worker_runs_from_memory(self):
        """No --store-dir at all: blobs are decoded in memory, nothing simulated."""
        plan = experiment_plan("figure5", TINY)
        serial = run_plan(plan)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator)
        thread.join(timeout=10.0)
        assert worker.store is None
        assert coordinator.stats["datasets_served"] == 1
        assert _rows(remote) == _rows(serial)

    def test_dataset_bytes_round_trip(self, tmp_path):
        import numpy as np

        store = DatasetStore(tmp_path)
        spec = experiment_plan("figure6", TINY).dataset
        dataset = store.get(spec)
        data = store.dataset_bytes(spec)
        assert data == DatasetStore.encode_dataset(dataset)
        decoded = DatasetStore.decode_dataset_bytes(data)
        np.testing.assert_array_equal(decoded.X, dataset.X)
        np.testing.assert_array_equal(decoded.y, dataset.y)
        assert decoded.feature_names == dataset.feature_names
        assert decoded.configs == dataset.configs

        other = DatasetStore(tmp_path / "other")
        other.put_dataset_bytes(spec, data)
        loaded = other.get(spec)
        assert (other.misses, other.hits) == (0, 1)
        np.testing.assert_array_equal(loaded.X, dataset.X)


class TestObjectStoreBootstrap:
    """Fleet bootstrap straight from the bundled S3-style object store."""

    @pytest.fixture()
    def object_store(self):
        from repro.datasets.backends import MemoryBackend
        from repro.datasets.object_server import ObjectStoreServer

        with ObjectStoreServer(MemoryBackend()) as server:
            yield server

    def test_storeless_worker_bootstraps_from_object_store(self, object_store):
        """Acceptance: a store-dir-less worker pointed at an http:// store
        locator pulls dataset + warmed caches straight off the object
        server — zero FetchDataset/FetchCache frames through the
        coordinator — and rows stay bit-identical to serial."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        shared = DatasetStore(object_store.url)
        warm = run_plan(plan, store=shared)  # seeds the object store
        assert _rows(warm) == _rows(serial)
        puts_before = object_store.stats["puts"]

        coordinator_store = DatasetStore(object_store.url)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address)  # no store at all
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              store=coordinator_store)
        thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        # Dataset + one warmed cache, both served over HTTP, not the socket.
        assert (worker.direct_fetches, worker.relay_fetches) == (2, 0)
        assert coordinator.stats["datasets_served"] == 0
        assert coordinator.stats["caches_served"] == 0
        assert object_store.stats["gets"] >= 2
        # Bootstrap is read-only: the store-less worker uploaded nothing.
        assert object_store.stats["puts"] == puts_before

    def test_worker_with_object_store_url(self, object_store):
        """A worker whose *own* store is the object store (--store-url
        http://...) loads artifacts directly and needs no bootstrap at all."""
        plan = experiment_plan("figure6", TINY)
        shared = DatasetStore(object_store.url)
        serial = run_plan(plan, store=shared)

        worker_store = DatasetStore(object_store.url)
        with Coordinator() as coordinator:
            worker = FleetWorker(coordinator.address, store=worker_store)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator,
                              store=shared)
        thread.join(timeout=10.0)
        assert _rows(remote) == _rows(serial)
        assert (worker.direct_fetches, worker.relay_fetches) == (0, 0)
        assert worker_store.misses == 0 and worker_store.cache_misses == 0
        assert worker_store.hits >= 1 and worker_store.cache_hits >= 1
        assert coordinator.stats["datasets_served"] == 0
        assert coordinator.stats["caches_served"] == 0

    def test_prune_works_on_object_store(self, object_store):
        """`--store-prune` semantics are backend-independent."""
        live = experiment_plan("figure6", TINY).dataset
        stale = experiment_plan(
            "figure6", ExperimentSettings(max_configs=77)).dataset
        store = DatasetStore(object_store.url)
        store.get(live)
        store.get(stale)
        removed = store.prune(keep_fingerprints={live.fingerprint})
        assert [p.name for p in removed] == [store.dataset_path(stale).name]
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
    """Degradation paths: every fallback is taken loudly and recovers."""

    def test_direct_fetch_corruption_degrades_to_relay(self, tmp_path, caplog):
        """A corrupt blob in the shared store is rejected by the worker's
        checksum verification, logged with its cause, counted, and served
        through the coordinator relay instead — rows stay correct."""
        import logging

        from repro.testing import flip_bit

        parent = DatasetStore(tmp_path)
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan, store=parent)
        with Coordinator() as coordinator:
            thread, box = _run_plan_async(plan, coordinator, store=parent)
            deadline = time.monotonic() + 60.0
            while (coordinator.load()["outstanding"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            # The driver has resolved the plan (and snapshotted clean relay
            # blobs); now rot the shared dataset blob on disk.  The sidecar
            # still holds the original digest, so reads must be rejected.
            blob_path = parent.dataset_path(plan.dataset)
            blob_path.write_bytes(flip_bit(blob_path.read_bytes()))
            worker = FleetWorker(coordinator.address)
            worker_thread = threading.Thread(target=worker.run, daemon=True)
            with caplog.at_level(logging.WARNING,
                                 logger="repro.distributed.worker"):
                worker_thread.start()
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        worker_thread.join(timeout=10.0)
        assert "error" not in box, box.get("error")
        assert _rows(box["result"]) == _rows(serial)
        # The degradation was counted and logged exactly once, with cause.
        assert worker.direct_fetch_errors == 1
        assert worker.relay_fetches == 1   # dataset via relay
        assert worker.direct_fetches == 1  # cache still came directly
        assert "degrading to coordinator relay" in caplog.text
        assert "IntegrityError" in caplog.text

    def test_relay_blob_digest_mismatch_is_retried(self):
        """A relay blob that fails digest verification is refetched; the
        second copy passes and the plan completes bit-identically."""
        from repro.testing import flip_bit

        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        with Coordinator() as coordinator:
            original_reply = coordinator._reply
            tampered = {"done": False}

            def tamper(info, message):
                reply = original_reply(info, message)
                if (isinstance(message, protocol.FetchDataset)
                        and isinstance(reply, protocol.DatasetBlob)
                        and not tampered["done"]):
                    tampered["done"] = True
                    return protocol.DatasetBlob(
                        reply.plan_id, flip_bit(reply.data),
                        sha256=reply.sha256)
                return reply

            coordinator._reply = tamper
            worker = FleetWorker(coordinator.address)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            remote = run_plan(plan, executor="remote", fleet=coordinator)
        thread.join(timeout=10.0)
        assert tampered["done"]
        assert worker.blob_integrity_errors == 1
        assert _rows(remote) == _rows(serial)

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
            remote1 = run_plan(plan, executor="remote", fleet=coordinator)
            with coordinator._lock:
                infos = list(coordinator._workers.values())
            assert infos
            for info in infos:
                coordinator._sever(info)
            deadline = time.monotonic() + 20.0
            while worker.reconnects == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert worker.reconnects >= 1
            remote2 = run_plan(plan, executor="remote", fleet=coordinator)
        thread.join(timeout=10.0)
        assert _rows(remote1) == _rows(serial)
        assert _rows(remote2) == _rows(serial)


class TestSpeculation:
    def test_straggler_lease_is_speculatively_duplicated(self):
        """A worker that holds a lease forever does not stall the plan: once
        the queue drains, its overdue cells are re-leased to a healthy
        worker and dedupe-by-key keeps the duplication harmless."""
        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        total = len(expand_cells(plan))
        coordinator = Coordinator(batch_size=1, heartbeat_timeout=30.0,
                                  speculation_min_delay=0.2,
                                  speculation_factor=1.5)
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


class TestElasticFleet:
    def test_desired_workers_sizing_rule(self):
        from repro.distributed.autoscale import desired_workers

        def load(n):
            return {"outstanding": n}

        assert desired_workers(load(0), min_workers=0, max_workers=4) == 0
        assert desired_workers(load(1), min_workers=0, max_workers=4) == 1
        assert desired_workers(load(9), min_workers=0, max_workers=4,
                               cells_per_worker=4) == 3
        assert desired_workers(load(10**6), min_workers=0, max_workers=4) == 4
        assert desired_workers(load(0), min_workers=2, max_workers=4) == 2
        with pytest.raises(ValueError, match="min_workers"):
            desired_workers(load(0), min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="cells_per_worker"):
            desired_workers(load(0), min_workers=0, max_workers=1,
                            cells_per_worker=0)

    def test_autoscaler_spawns_for_queue_and_retires_idle(self, tmp_path):
        """Ticks are driven by hand for determinism: a queued plan scales
        the fleet up to target, a drained queue retires it to zero — via
        polite Goodbyes, never an abandoned lease."""
        from repro.distributed.autoscale import LocalAutoscaler

        plan = experiment_plan("figure6", TINY)
        serial = run_plan(plan)
        total = len(expand_cells(plan))
        with Coordinator() as coordinator:
            scaler = LocalAutoscaler(coordinator, min_workers=0, max_workers=2,
                                     cells_per_worker=max(1, total // 2),
                                     idle_ticks=2, store_dir=tmp_path)
            assert coordinator.elastic  # empty fleet is a transient now
            thread, box = _run_plan_async(plan, coordinator)
            deadline = time.monotonic() + 60.0
            while (coordinator.load()["outstanding"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            scaler.tick()
            assert scaler.stats["spawned"] == 2
            thread.join(timeout=120.0)
            assert not thread.is_alive()
            assert "error" not in box, box.get("error")
            # The queue has drained: idle ticks retire the whole fleet.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                scaler.tick()
                if (not coordinator.worker_snapshot()
                        and coordinator.stats["workers_retired"] >= 2):
                    break
                time.sleep(0.1)
            assert scaler.stats["retired"] >= 2
            assert coordinator.stats["workers_retired"] >= 2
            assert not coordinator.worker_snapshot()
        assert _rows(box["result"]) == _rows(serial)


class TestFleetKnobCli:
    def test_knobs_require_remote_executor(self):
        from repro.experiments.__main__ import main

        for flag, value in [("--heartbeat-timeout", "5"),
                            ("--batch-size", "2"), ("--max-retries", "1")]:
            with pytest.raises(SystemExit):
                main(["figure6", "--quick", flag, value])

    def test_knob_value_validation(self):
        from repro.experiments.__main__ import main

        base = ["figure6", "--quick", "--executor", "remote", "--jobs", "1"]
        for flag, bad in [("--heartbeat-timeout", "0"),
                          ("--batch-size", "0"), ("--max-retries", "-1")]:
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
                  "--heartbeat-timeout", "2.5", "--batch-size", "3",
                  "--max-retries", "7"])
        assert captured["heartbeat_timeout"] == 2.5
        assert captured["batch_size"] == 3
        assert captured["max_retries"] == 7

    def test_batch_cells_reaches_the_coordinator(self, monkeypatch):
        """``--batch-cells`` is the fleet's lease size for the remote
        executor: ``auto`` and integers both land in ``batch_size``."""
        from repro.experiments.__main__ import main

        captured = {}

        class _Probe:
            def __init__(self, **kwargs):
                captured.update(kwargs)
                raise RuntimeError("probe stop")

        monkeypatch.setattr("repro.distributed.coordinator.Coordinator", _Probe)
        with pytest.raises(RuntimeError, match="probe stop"):
            main(["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                  "--batch-cells", "auto"])
        assert captured["batch_size"] == "auto"
        captured.clear()
        with pytest.raises(RuntimeError, match="probe stop"):
            main(["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                  "--batch-cells", "6"])
        assert captured["batch_size"] == 6

    def test_batch_cells_flag_validation(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):  # needs a parallel executor
            main(["figure6", "--quick", "--batch-cells", "auto"])
        with pytest.raises(SystemExit):  # bad value
            main(["figure6", "--quick", "--executor", "process", "--jobs", "2",
                  "--batch-cells", "bogus"])
        with pytest.raises(SystemExit):  # conflicts with the fleet knob
            main(["figure6", "--quick", "--executor", "remote", "--jobs", "2",
                  "--batch-cells", "4", "--batch-size", "2"])

    def test_worker_cli_rejects_bad_retry_knobs(self):
        from repro.distributed.worker import main

        with pytest.raises(SystemExit):
            main(["--connect", "127.0.0.1:1", "--max-retries", "0"])
        with pytest.raises(SystemExit):
            main(["--connect", "127.0.0.1:1", "--reconnect-attempts", "-1"])
