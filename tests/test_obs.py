"""Tests for the observability plane (`repro.obs`).

The guarantees under test:

* the metrics registry is safe to snapshot while other threads
  increment (the regression for the formerly unlocked ``stats`` dicts
  on the autoscaler and worker pool);
* snapshot ``merge`` is associative and commutative — any tree of
  per-worker snapshots folds to the same fleet-wide view — and refuses
  kind/labelname/bucket-edge conflicts instead of silently mixing;
* Prometheus text exposition matches the 0.0.4 format exactly (golden
  test) and round-trips through :func:`parse_prometheus`;
* histogram bucket edges follow Prometheus semantics (``v <= le``);
* a plan run under **each of the four executors** produces a span per
  cell with intact parent links (cell → batch → plan → experiment) and
  bit-identical result rows; the remote run additionally exposes a
  scrapeable coordinator status port whose
  ``repro_cells_completed_total`` equals the plan's cell count;
* the structured-log formatter round-trips through ``json.loads``.
"""

from __future__ import annotations

import io
import json
import logging
import pickle
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.datasets.store import DatasetStore
from repro.distributed.coordinator import Coordinator
from repro.distributed.worker import FleetWorker
from repro.experiments import ExperimentSettings, run_experiment
from repro.experiments.plan import expand_cells, experiment_plan
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
from repro.obs.http import CONTENT_TYPE, StatusServer, metrics_body
from repro.obs.tracing import SpanContext, load_trace

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

    def test_merge_histograms(self):
        def one(values):
            reg = MetricsRegistry()
            hist = reg.histogram("h", buckets=(1.0, 2.0))
            for value in values:
                hist.observe(value)
            return reg.snapshot()

        merged = one([0.5, 1.5]).merge(one([3.0]))
        assert merged.value("h") == 3  # histogram value() is its count
        sample = merged.data["h"]["samples"][()]
        assert sample["counts"] == (1, 1, 1)
        assert sample["sum"] == 5.0

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

        narrow, wide = MetricsRegistry(), MetricsRegistry()
        narrow.histogram("h", buckets=(1.0,)).observe(0.5)
        wide.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket edges"):
            narrow.snapshot().merge(wide.snapshot())

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
        reg.histogram("repro_latency_seconds", "Latency.",
                      buckets=(0.1, 1.0)).observe(0.05)
        assert render_prometheus(reg.snapshot()) == (
            "# HELP repro_latency_seconds Latency.\n"
            "# TYPE repro_latency_seconds histogram\n"
            'repro_latency_seconds_bucket{le="0.1"} 1\n'
            'repro_latency_seconds_bucket{le="1"} 1\n'
            'repro_latency_seconds_bucket{le="+Inf"} 1\n'
            "repro_latency_seconds_sum 0.05\n"
            "repro_latency_seconds_count 1\n"
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


class TestHistogramBuckets:
    def test_edge_semantics(self):
        """An observation exactly on an edge lands in that bucket
        (Prometheus ``v <= le``); past the last edge it lands in +Inf."""
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 99.0):
            hist.observe(value)
        sample = reg.snapshot().data["h"]["samples"][()]
        assert sample["counts"] == (2, 2, 1)  # per-bucket, not cumulative
        assert sample["count"] == 5
        text = render_prometheus(reg.snapshot())
        assert 'h_bucket{le="1"} 2' in text  # cumulative in exposition
        assert 'h_bucket{le="2"} 4' in text
        assert 'h_bucket{le="+Inf"} 5' in text

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))


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

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
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
        with TRACER.collect() as spans:
            run_experiment("figure5", TINY, executor="thread", jobs=2)
        summary = summarize_trace(spans)
        assert summary["spans"] == len(spans)
        assert summary["phases"]["cell"]["count"] == n_cells
        assert sum(w["cells"] for w in summary["workers"].values()) == n_cells
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
