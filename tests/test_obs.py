"""Tests for the observability plane (`repro.obs`).

The guarantees under test:

* the metrics registry is safe to snapshot while other threads
  increment (the regression for the formerly unlocked ``stats`` dicts
  on the worker pool);
* snapshot ``merge`` is associative and commutative — any tree of
  per-worker snapshots folds to the same fleet-wide view — and refuses
  kind/labelname conflicts instead of silently mixing;
* Prometheus text exposition matches the 0.0.4 format exactly (golden
  test) and round-trips through :func:`parse_prometheus`, and every
  snapshot that decodes from a wire frame renders to text the parser
  accepts;
* a plan run under **each of the three executors** produces a span per
  cell with intact parent links (cell → batch → plan → experiment) and
  bit-identical result rows; the remote run additionally exposes a
  scrapeable coordinator status port whose
  ``repro_cells_completed_total`` equals the plan's cell count;
* the structured-log formatter round-trips through ``json.loads``;
* an HTTP request that stalls is dropped after the per-read timeout, and
  random request lines, headers and ``Content-Length`` values against a
  keyed server get a 4xx, a 501 or a closed connection — never a 500, an
  escaped handler exception or a hang.
"""

from __future__ import annotations

import io
import json
import logging
import pickle
import re
import select
import socket
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.datasets.backends import MemoryBackend
from repro.datasets.object_server import ObjectStoreServer
from repro.datasets.store import DatasetStore
from repro.distributed.coordinator import Coordinator
from repro.distributed.worker import FleetWorker
from repro.experiments import ExperimentSettings, run_experiment
from repro.experiments.plan import expand_cells, experiment_plan
from repro.experiments.pool import WorkerPool
from repro.experiments.reporting import format_trace_summary, summarize_trace
from repro.obs import (
    REGISTRY,
    TRACER,
    JsonFormatter,
    MetricsRegistry,
    MetricsSnapshot,
    Span,
    configure_logging,
    parse_prometheus,
    render_prometheus,
    span_into,
    write_trace,
)
from repro.obs.http import CONTENT_TYPE, StatusServer, metrics_body, sign_request
from repro.obs.tracing import SpanContext, load_trace
from repro.serving import ModelServer

TINY = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120, random_state=0)


class TestRegistry:
    def test_counter_gauge_basics(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "a counter")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        gauge = reg.gauge("g", "a gauge")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13
        # Getters are idempotent: same name -> same instrument.
        assert reg.counter("c_total") is counter

    def test_conflicting_reregistration_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("m_total", labelnames=("op",))

    def test_labeled_children(self):
        reg = MetricsRegistry()
        counter = reg.counter("ops_total", labelnames=("op",))
        counter.labels(op="read").inc(3)
        counter.labels(op="write").inc()
        assert counter.labels(op="read").value == 3
        assert counter.labels(op="write").value == 1
        snap = reg.snapshot()
        assert snap.value("ops_total", op="read") == 3
        with pytest.raises(ValueError):
            counter.labels(wrong="x")
        with pytest.raises(ValueError):
            counter.inc()  # labeled metric has no unlabeled sample

    def test_unlabeled_counter_visible_before_first_inc(self):
        """Scrapers must see the series (at 0) from creation, not only
        after the first increment — the acceptance scrape can happen
        before any cell completes."""
        reg = MetricsRegistry()
        reg.counter("idle_total", "never incremented")
        samples = parse_prometheus(render_prometheus(reg.snapshot()))
        assert samples[("idle_total", ())] == 0

    def test_snapshot_during_increment_is_atomic(self):
        """The satellite regression: hammer one counter from many threads
        while another thread snapshots — no torn reads, exact total."""
        reg = MetricsRegistry()
        counter = reg.counter("hammer_total")
        n_threads, n_incs = 8, 5000
        stop = threading.Event()
        seen: list[float] = []

        def _snapshotter():
            while not stop.is_set():
                seen.append(reg.snapshot().value("hammer_total"))

        def _hammer():
            for _ in range(n_incs):
                counter.inc()

        snapper = threading.Thread(target=_snapshotter)
        hammers = [threading.Thread(target=_hammer) for _ in range(n_threads)]
        snapper.start()
        for thread in hammers:
            thread.start()
        for thread in hammers:
            thread.join()
        stop.set()
        snapper.join()
        assert counter.value == n_threads * n_incs
        # Every observed value is a whole number of increments and the
        # sequence never goes backwards (each snapshot is consistent).
        assert all(value == int(value) for value in seen)
        assert seen == sorted(seen)

    def test_attached_registry_detaches_on_gc(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(attach_to=parent)
        child.counter("child_total").inc(7)
        assert parent.snapshot().value("child_total") == 7
        del child
        assert parent.snapshot().value("child_total") == 0

    def test_global_registry_sees_components(self):
        component = MetricsRegistry(attach_to=REGISTRY)
        component.counter("repro_test_component_total").inc(2)
        assert REGISTRY.snapshot().value("repro_test_component_total") == 2


def _snap(**counters) -> MetricsSnapshot:
    reg = MetricsRegistry()
    for name, value in counters.items():
        reg.counter(name).inc(value)
    return reg.snapshot()


class TestSnapshotMerge:
    def test_merge_is_associative_and_commutative(self):
        a, b, c = _snap(x=1, y=2), _snap(x=10), _snap(y=5, z=3)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.data == right.data
        assert a.merge(b).data == b.merge(a).data
        assert left.value("x") == 11
        assert left.value("y") == 7
        assert left.value("z") == 3

    def test_merge_conflicts_raise(self):
        counter_reg, gauge_reg = MetricsRegistry(), MetricsRegistry()
        counter_reg.counter("m")
        gauge_reg.gauge("m")
        with pytest.raises(ValueError, match="conflicting kinds"):
            counter_reg.snapshot().merge(gauge_reg.snapshot())

        plain, labeled = MetricsRegistry(), MetricsRegistry()
        plain.counter("n").inc()
        labeled.counter("n", labelnames=("op",)).labels(op="x").inc()
        with pytest.raises(ValueError, match="conflicting labelnames"):
            plain.snapshot().merge(labeled.snapshot())

    def test_with_labels(self):
        relabeled = _snap(jobs_total=4).with_labels(worker="w1")
        assert relabeled.value("jobs_total", worker="w1") == 4
        assert relabeled.data["jobs_total"]["labelnames"] == ("worker",)
        # Per-worker series merge cleanly with the same snapshot under
        # another label value — the coordinator's fleet view.
        fleet = relabeled.merge(_snap(jobs_total=6).with_labels(worker="w2"))
        assert fleet.value("jobs_total", worker="w2") == 6
        with pytest.raises(ValueError, match="already has labels"):
            relabeled.with_labels(worker="again")

    def test_value_of_absent_metric_is_zero(self):
        assert MetricsSnapshot().value("nope_total") == 0.0


class TestPrometheusExposition:
    def test_golden_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_rows_total", "Rows processed.").inc(3)
        ops = reg.counter("repro_ops_total", "", labelnames=("op",))
        ops.labels(op="read").inc(2)
        reg.gauge("repro_workers", "Connected workers.").set(1.5)
        assert render_prometheus(reg.snapshot()) == (
            "# TYPE repro_ops_total counter\n"
            'repro_ops_total{op="read"} 2\n'
            "# HELP repro_rows_total Rows processed.\n"
            "# TYPE repro_rows_total counter\n"
            "repro_rows_total 3\n"
            "# HELP repro_workers Connected workers.\n"
            "# TYPE repro_workers gauge\n"
            "repro_workers 1.5\n"
        )

    def test_parse_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(2)
        weird = reg.counter("b_total", labelnames=("path",))
        weird.labels(path='tricky "quoted",\\comma').inc()
        samples = parse_prometheus(render_prometheus(reg.snapshot()))
        assert samples[("a_total", ())] == 2
        assert samples[("b_total",
                        (("path", 'tricky "quoted",\\comma'),))] == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("<html>not metrics</html>")
        with pytest.raises(ValueError):
            parse_prometheus("# COMMENT nonsense\n")

    def test_metrics_body_is_parseable(self):
        component = MetricsRegistry(attach_to=REGISTRY)
        component.counter("repro_test_body_total").inc(9)
        samples = parse_prometheus(metrics_body().decode("utf-8"))
        assert samples[("repro_test_body_total", ())] == 9
        assert CONTENT_TYPE.startswith("text/plain")


#: Names that pass the snapshot check, and anything else.
_FORGED_NAMES = st.one_of(st.from_regex(r"[a-zA-Z_:][a-zA-Z0-9_:]{0,5}",
                                        fullmatch=True),
                          st.text(max_size=4))
_FORGED_VALUES = st.one_of(st.integers(), st.floats(), st.booleans(),
                           st.text(max_size=3), st.none())


@st.composite
def _forged_family(draw):
    """One metric family's ``{"kind", "help", "labelnames", "samples"}``,
    as a hostile worker may ship it: any field may be off."""
    labelnames = draw(st.lists(_FORGED_NAMES, max_size=2))
    if draw(st.booleans()):
        labelnames = tuple(labelnames)
    width = len(labelnames)
    keys = st.one_of(st.tuples(*[st.text(max_size=4)] * width),
                     st.lists(st.text(max_size=3), max_size=3).map(tuple),
                     st.integers())
    family = {"kind": draw(st.sampled_from(["counter", "gauge", "summary", 1])),
              "help": draw(st.one_of(st.text(max_size=8), st.integers())),
              "labelnames": labelnames,
              "samples": draw(st.dictionaries(keys, _FORGED_VALUES, max_size=3))}
    if draw(st.booleans()):
        family.pop(draw(st.sampled_from(sorted(family))))
    return family


def _forged_snapshot(data) -> MetricsSnapshot:
    """A ``MetricsSnapshot`` built around its own checks, as a hostile
    worker sends it."""
    snapshot = object.__new__(MetricsSnapshot)
    object.__setattr__(snapshot, "data", data)
    return snapshot


class TestSnapshotShape:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.one_of(st.dictionaries(_FORGED_NAMES, _forged_family(),
                                          max_size=3),
                          _FORGED_VALUES))
    def test_every_decodable_snapshot_renders(self, data):
        """Whatever a peer ships, the decoder either refuses it with
        ``CodecError`` or yields a snapshot whose text exposition
        ``parse_prometheus`` reads back sample for sample."""
        from repro.distributed import codec

        payload = codec.encode_value(_forged_snapshot(data))
        try:
            snapshot = codec.decode_value(payload)
        except codec.CodecError:
            return
        samples = parse_prometheus(render_prometheus(snapshot))
        expected = {
            (name, tuple(sorted(zip(meta["labelnames"], key, strict=True)))):
                float(value)
            for name, meta in snapshot.data.items()
            for key, value in meta["samples"].items()}
        assert samples == expected

    @pytest.mark.parametrize("data", [
        {"x_total": "junk"},
        {"x_total": {"kind": "summary", "help": "", "labelnames": (),
                     "samples": {}}},
        {"bad name": {"kind": "counter", "help": "", "labelnames": (),
                      "samples": {}}},
        {"x_total": {"kind": "counter", "help": "", "labelnames": ("op",),
                     "samples": {(): 1}}},
        {"x_total": {"kind": "counter", "help": "", "labelnames": (),
                     "samples": {(): True}}},
        {"x_total": {"kind": "counter", "help": "", "labelnames": (),
                     "samples": {(): float("nan")}}},
        {"x_total": {"kind": "counter", "help": "", "labelnames": ("a", "a"),
                     "samples": {}}},
    ], ids=["not-a-family", "summary-kind", "bad-name", "short-key", "bool",
            "nan", "duplicate-labels"])
    def test_malformed_snapshot_fails_decoding(self, data):
        from repro.distributed import codec

        with pytest.raises(ValueError):
            MetricsSnapshot(data)
        with pytest.raises(codec.CodecError):
            codec.decode_value(codec.encode_value(_forged_snapshot(data)))


class TestTracing:
    def test_disabled_tracer_yields_none(self):
        assert not TRACER.enabled
        with TRACER.span("anything") as span:
            assert span is None

    def test_nesting_links_parents(self):
        with TRACER.collect() as spans:
            with TRACER.span("outer") as outer:
                with TRACER.span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                    assert inner.trace_id == outer.trace_id
                    TRACER.event("tick", n=1)
        assert not TRACER.enabled
        assert [s.name for s in spans] == ["inner", "outer"]
        (event,) = spans[0].events
        assert event["name"] == "tick" and event["n"] == 1
        assert spans[1].parent_id is None

    def test_span_into_needs_no_collection(self):
        """The worker-side primitive: spans built from a wire context,
        no active collection required."""
        parent = SpanContext(trace_id="t" * 32, span_id="p" * 16)
        sink: list[Span] = []
        with span_into(sink, "batch", parent=parent) as batch:
            with span_into(sink, "cell", parent=batch):
                pass
        assert [s.name for s in sink] == ["cell", "batch"]
        assert sink[1].parent_id == parent.span_id
        assert sink[0].parent_id == sink[1].span_id
        assert {s.trace_id for s in sink} == {parent.trace_id}

    def test_spans_survive_pickle_and_trace_file(self, tmp_path):
        sink: list[Span] = []
        with span_into(sink, "cell", attrs={"series": "s", "repeat": 1}) as span:
            span.add_event("retry", attempt=2)
        shipped = pickle.loads(pickle.dumps(tuple(sink)))
        assert shipped[0].as_dict() == sink[0].as_dict()
        path = tmp_path / "trace.jsonl"
        assert write_trace(path, sink) == 1
        assert [s.as_dict() for s in load_trace(path)] == \
            [s.as_dict() for s in sink]


def _span_tree_checks(spans, n_cells, executor):
    """Assert cell -> batch -> plan -> experiment linkage for one run,
    with the dataset span a sibling of the plan span."""
    by_id = {s.span_id: s for s in spans}
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    assert len(by_name["experiment"]) == 1
    assert len(by_name["plan"]) == 1
    assert len(by_name.get("dataset", [])) == 1, (
        f"{executor}: expected one dataset span")
    assert len(by_name["cell"]) == n_cells, (
        f"{executor}: expected a span per cell")
    experiment, plan = by_name["experiment"][0], by_name["plan"][0]
    assert plan.parent_id == experiment.span_id
    dataset = by_name["dataset"][0]
    assert dataset.parent_id == experiment.span_id
    assert dataset.attrs == {"dataset": "stencil-grid-only", "store_hit": False}
    assert experiment.parent_id is None
    for batch in by_name["batch"]:
        assert batch.parent_id == plan.span_id
    for cell in by_name["cell"]:
        assert by_id[cell.parent_id].name == "batch"
        assert {"series", "fraction", "repeat"} <= set(cell.attrs)
    assert {s.trace_id for s in spans} == {experiment.trace_id}


class TestExecutorSpans:
    """Span parent-link integrity for a plan run under each executor."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_experiment("figure5", TINY)

    @pytest.fixture(scope="class")
    def n_cells(self):
        return len(expand_cells(experiment_plan("figure5", TINY)))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_local_executors(self, executor, baseline, n_cells):
        with TRACER.collect() as spans:
            result = run_experiment("figure5", TINY, executor=executor, jobs=2)
        _span_tree_checks(spans, n_cells, executor)
        assert pickle.dumps(result.curves) == pickle.dumps(baseline.curves)

    def test_remote_executor_with_status_scrape(self, baseline, n_cells):
        """The acceptance criterion: a 2-worker remote run traces every
        cell with correct parent links, matches serial bit-for-bit, and
        the coordinator status port reports
        ``repro_cells_completed_total`` == the plan's cell count."""
        with Coordinator() as coordinator:
            status = coordinator.serve_status()
            try:
                workers = [FleetWorker(coordinator.address) for _ in range(2)]
                threads = [threading.Thread(target=w.run, daemon=True)
                           for w in workers]
                for thread in threads:
                    thread.start()
                with TRACER.collect() as spans:
                    result = run_experiment("figure5", TINY, executor="remote",
                                            fleet=coordinator)
                with urllib.request.urlopen(status.url + "/metrics",
                                            timeout=10.0) as response:
                    assert response.headers["Content-Type"] == CONTENT_TYPE
                    scraped = parse_prometheus(response.read().decode("utf-8"))
                with urllib.request.urlopen(status.url + "/healthz",
                                            timeout=10.0) as response:
                    health = json.loads(response.read())
            finally:
                status.stop()
        for thread in threads:
            thread.join(timeout=10.0)
        _span_tree_checks(spans, n_cells, "remote")
        # Remote cell spans carry the evaluating worker's identity.
        cell_workers = {s.attrs["worker"] for s in spans if s.name == "cell"}
        assert cell_workers <= {w.worker_id for w in workers}
        assert pickle.dumps(result.curves) == pickle.dumps(baseline.curves)
        assert scraped[("repro_cells_completed_total", ())] == n_cells
        # Per-worker and aggregate fleet series from shipped snapshots.
        fleet_evaluated = scraped[("repro_worker_cells_evaluated_total",
                                   (("worker", "fleet"),))]
        assert fleet_evaluated == n_cells
        assert health["status"] == "ok"
        assert health["coordinator_id"] == coordinator.coordinator_id

    def test_dataset_span_records_store_hits(self, tmp_path):
        store = DatasetStore(tmp_path)
        hits = []
        for _ in range(2):
            with TRACER.collect() as spans:
                run_experiment("figure5", TINY, store=store)
            (dataset,) = [s for s in spans if s.name == "dataset"]
            hits.append(dataset.attrs["store_hit"])
        assert hits == [False, True]

    def test_trace_summary_reports_phases_and_workers(self, n_cells):
        with WorkerPool(2) as pool, TRACER.collect() as spans:
            run_experiment("figure5", TINY, executor="process", jobs=2, pool=pool)
        summary = summarize_trace(spans)
        assert summary["spans"] == len(spans)
        assert summary["phases"]["cell"]["count"] == n_cells
        assert sum(w["cells"] for w in summary["workers"].values()) == n_cells
        # Every cell is attributed to the pool worker that evaluated it.
        assert set(summary["workers"]) <= {f"pid-{pid}" for pid in pool.worker_pids}
        text = format_trace_summary(summary)
        assert "worker utilization:" in text
        assert "slowest cells:" in text
        assert summarize_trace([]) == {"spans": 0, "wall_seconds": 0.0,
                                       "phases": {}, "slowest_cells": [],
                                       "workers": {}}


class TestStatusServer:
    def test_serves_metrics_and_health(self):
        reg = MetricsRegistry()
        reg.counter("standalone_total").inc(4)
        with StatusServer(metrics=reg.snapshot,
                          health=lambda: {"status": "ok"}) as server:
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=10.0) as response:
                samples = parse_prometheus(response.read().decode("utf-8"))
            assert samples[("standalone_total", ())] == 4
            with urllib.request.urlopen(server.url + "/healthz",
                                        timeout=10.0) as response:
                assert json.loads(response.read()) == {"status": "ok"}
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope", timeout=10.0)
            assert err.value.code == 404

    @pytest.mark.parametrize("declared", ["abc", "-5"])
    def test_malformed_content_length_is_400_and_closes(self, declared):
        with StatusServer() as server:
            with socket.create_connection(server.server_address[:2],
                                          timeout=10.0) as sock:
                sock.sendall(b"POST /metrics HTTP/1.1\r\nHost: test\r\n"
                             b"Content-Length: " + declared.encode()
                             + b"\r\n\r\n")
                reply = b""
                while chunk := sock.recv(4096):  # until the server closes
                    reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert b"\r\nConnection: close\r\n" in reply
        assert b"malformed Content-Length" in reply

    @pytest.mark.parametrize("make_server", [
        lambda key: StatusServer(auth=key),
        lambda key: ObjectStoreServer(MemoryBackend(), auth=key),
        lambda key: ModelServer(DatasetStore("memory://"), auth=key),
    ], ids=["status", "object-store", "model"])
    def test_oversized_body_is_413_before_reading_or_auth(self, make_server):
        """An unsigned POST declaring 1 GiB and sending no body is refused
        at once; before the cap the server sat waiting for the body."""
        key = b"body-cap-test-key"
        with make_server(key) as server:
            start = time.monotonic()
            with socket.create_connection(server.server_address[:2],
                                          timeout=1.0) as sock:
                sock.sendall(b"POST /upload HTTP/1.1\r\nHost: test\r\n"
                             b"Content-Length: 1073741824\r\n\r\n")
                reply = b""
                while chunk := sock.recv(4096):  # until the server closes
                    reply += chunk
            assert time.monotonic() - start < 1.0
            assert reply.startswith(b"HTTP/1.1 413 "), reply
            assert b"\r\nConnection: close\r\n" in reply
            assert server.auth_failures == 0  # refused before the auth check
            request = urllib.request.Request(
                server.url + "metrics",
                headers={"Authorization": sign_request(key, "GET", "/metrics")})
            with urllib.request.urlopen(request, timeout=10.0) as response:
                assert response.status == 200

    @pytest.mark.parametrize("sent", [
        b"GET /metrics HTTP/1.1\r\nHost: test\r\nContent-Length: 10\r\n\r\n",
        b"",
    ], ids=["declared-body-never-sent", "silent"])
    def test_stalled_request_is_dropped_after_the_read_timeout(self, sent,
                                                               monkeypatch):
        """A peer that declares a body it never sends, or sends nothing,
        loses its connection once a read has waited the handler's
        timeout; without one it held the connection, and a handler
        thread, before any auth check, for as long as it liked."""
        monkeypatch.setattr("repro.obs.http.READ_TIMEOUT_S", 0.3)
        with StatusServer(auth=b"read-timeout-test-key") as server:
            start = time.monotonic()
            with socket.create_connection(server.server_address[:2],
                                          timeout=3.0) as sock:
                sock.sendall(sent)
                reply = sock.recv(4096)  # b"" once the server hangs up
            elapsed = time.monotonic() - start
        assert reply == b""
        assert 0.2 < elapsed < 2.0, f"dropped after {elapsed:.2f} s"

    @pytest.mark.parametrize("make_server", [
        lambda key: StatusServer(auth=key),
        lambda key: ObjectStoreServer(MemoryBackend(), auth=key),
        lambda key: ModelServer(DatasetStore("memory://"), auth=key),
    ], ids=["status", "object-store", "model"])
    def test_connections_over_the_cap_are_closed_at_once(self, make_server,
                                                         monkeypatch):
        """With the cap at 4, ten idle connections start at most four
        handler threads and the six over the cap read EOF at once; without
        a cap each held a thread, before any auth check, until the read
        timeout.  A freed slot serves again."""
        monkeypatch.setattr("repro.obs.http.MAX_CONNECTIONS", 4)

        def handler_threads() -> int:
            return sum("process_request_thread" in thread.name
                       for thread in threading.enumerate())

        with make_server(b"connection-cap-test-key") as server:
            before = handler_threads()
            socks = [socket.create_connection(server.server_address[:2],
                                              timeout=5.0) for _ in range(10)]
            try:
                closed: list = []
                deadline = time.monotonic() + 1.0
                while len(closed) < 6 and time.monotonic() < deadline:
                    readable, _, _ = select.select(
                        [sock for sock in socks if sock not in closed], [], [],
                        max(0.0, deadline - time.monotonic()))
                    for sock in readable:
                        assert sock.recv(1) == b""  # EOF: closed unanswered
                        closed.append(sock)
                assert len(closed) == 6
                held = [sock for sock in socks if sock not in closed]
                assert select.select(held, [], [], 0.2)[0] == []
                assert handler_threads() - before <= 4
            finally:
                for sock in socks:
                    sock.close()
            # The idle connections' handlers see EOF and free their slots.
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    with urllib.request.urlopen(server.url + "healthz",
                                                timeout=5.0) as response:
                        assert response.status == 200
                    break
                except (urllib.error.URLError, ConnectionError):
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)

    def test_a_handler_thread_that_fails_to_start_frees_its_slot(self,
                                                                 monkeypatch):
        """A connection whose handler thread cannot start is closed and
        gives its slot back: at a cap of 1 the server still serves."""
        monkeypatch.setattr("repro.obs.http.MAX_CONNECTIONS", 1)
        start = threading.Thread.start
        failed: list = []

        def failing_start(thread):
            if not failed and "process_request_thread" in thread.name:
                failed.append(thread)
                raise RuntimeError("can't start new thread")
            start(thread)

        with StatusServer() as server:
            monkeypatch.setattr(threading.Thread, "start", failing_start)
            with socket.create_connection(server.server_address[:2],
                                          timeout=5.0) as sock:
                assert sock.recv(1) == b""
            assert failed
            with urllib.request.urlopen(server.url + "healthz",
                                        timeout=5.0) as response:
                assert response.status == 200


#: Read timeout of the fuzzed server, and how long a fuzzed exchange may
#: stay open before it counts as a hang.
_FUZZ_READ_TIMEOUT_S = 0.1
_FUZZ_HANG_S = 5.0
_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                 min_size=1, max_size=12)
_HEADER_VALUE = st.one_of(
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=24),
    st.integers(-2 ** 40, 2 ** 70).map(str),
    st.sampled_from(["Repro-HMAC 00", "100-continue", "close", "chunked",
                     " 5", "0x10", "1e3", "\uff15"]))


@st.composite
def _http_requests(draw) -> tuple[bytes, str]:
    """``(raw request bytes, request target)``: a request line, headers and
    a body, each drawn from plausible and hostile values."""
    method = draw(st.sampled_from(
        ["GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS"]) | _TOKEN)
    target = draw(st.sampled_from(
        ["/metrics", "/healthz", "/healthz?x=1", "/", "/nope", "*",
         "http://[::1/metrics"]) | _TOKEN)
    version = draw(st.sampled_from(
        ["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/0.9", "HTTP/1", ""]) | _TOKEN)
    headers = draw(st.lists(st.tuples(
        st.sampled_from(["Content-Length", "Authorization", "Host",
                         "Connection", "Expect", "Transfer-Encoding"]) | _TOKEN,
        _HEADER_VALUE), max_size=5))
    line = " ".join(part for part in (method, target, version) if part)
    raw = (line + "\r\n" + "".join(f"{name}: {value}\r\n" for name, value in headers)
           + "\r\n").encode("utf-8") + draw(st.binary(max_size=64))
    return raw, target


@pytest.fixture(scope="class")
def fuzzed_server():
    """A keyed status server with a short read timeout that records every
    exception escaping a request handler."""
    escaped: list = []
    with mock.patch("repro.obs.http.READ_TIMEOUT_S", _FUZZ_READ_TIMEOUT_S):
        with StatusServer(auth=b"http-fuzz-key") as server:
            server.handle_error = lambda request, address: escaped.append(
                sys.exc_info()[1])
            yield server, escaped


class TestHTTPRequestFuzz:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(request=st.one_of(_http_requests(),
                             st.binary(max_size=128).map(lambda raw: (raw, ""))),
           half_close=st.booleans())
    @example(request=(b"GET http://[::1/metrics HTTP/1.1\r\n\r\n",
                      "http://[::1/metrics"), half_close=True)
    @example(request=(b"GET /metrics\r\n", "/metrics"), half_close=True)
    def test_random_requests_get_4xx_501_or_a_close(self, fuzzed_server,
                                                     request, half_close):
        """Whatever arrives, every reply is a 4xx, a 501 (unknown method),
        a 505 (an HTTP/2+ version line) or a 1xx interim line; a 200 only
        for the open ``/healthz``.  The connection always ends within the
        read timeout, no handler exception escapes, and ``/healthz``
        still answers afterwards."""
        server, escaped = fuzzed_server
        escaped.clear()
        raw, target = request
        with socket.create_connection(server.server_address[:2],
                                      timeout=_FUZZ_HANG_S) as sock:
            sock.sendall(raw)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(65536):  # TimeoutError on a hang
                reply += chunk
        try:
            healthz = urllib.parse.urlsplit(target).path.rstrip("/") == "/healthz"
        except ValueError:
            healthz = False
        for status in map(int, re.findall(rb"^HTTP/\d\.\d (\d{3}) ", reply, re.M)):
            assert (400 <= status < 500 or status in (100, 501, 505)
                    or (status == 200 and healthz)), (status, raw, reply)
        assert escaped == [], escaped
        with urllib.request.urlopen(server.url + "healthz",
                                    timeout=_FUZZ_HANG_S) as response:
            assert response.status == 200


class TestStructuredLogging:
    def test_json_formatter_round_trip(self):
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger = logging.getLogger("repro.test.obs")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        try:
            logger.info("served %d cells", 12, extra={"worker": "w1"})
            try:
                raise RuntimeError("boom")
            except RuntimeError:
                logger.exception("failed")
        finally:
            logger.removeHandler(handler)
        lines = stream.getvalue().strip().splitlines()
        first, second = (json.loads(line) for line in lines)
        assert first["message"] == "served 12 cells"
        assert first["level"] == "INFO"
        assert first["logger"] == "repro.test.obs"
        assert first["worker"] == "w1"
        assert first["ts"].endswith("+00:00")
        assert "RuntimeError: boom" in second["exc_info"]

    def test_configure_logging_validates_and_is_idempotent(self):
        root = logging.getLogger()
        saved_handlers, saved_level = list(root.handlers), root.level
        try:
            stream = io.StringIO()
            configure_logging(fmt="json", level="DEBUG", stream=stream)
            configure_logging(fmt="json", level="WARNING", stream=stream)
            assert len(root.handlers) == 1  # replaced, not stacked
            logging.getLogger("repro.test.cfg").warning("hello")
            assert json.loads(stream.getvalue())["message"] == "hello"
            with pytest.raises(ValueError, match="log format"):
                configure_logging(fmt="yaml")
            with pytest.raises(ValueError, match="log level"):
                configure_logging(level="LOUD")
        finally:
            for handler in list(root.handlers):
                root.removeHandler(handler)
            for handler in saved_handlers:
                root.addHandler(handler)
            root.setLevel(saved_level)
