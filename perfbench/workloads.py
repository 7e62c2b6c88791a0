"""The four workloads: set-up, timed phase, teardown and output checks.

Each workload drives the program only through public surfaces:
``run_experiment`` (the loop ``python -m repro.experiments`` runs),
``WorkerPool``, ``Coordinator`` and ``repro-serve`` over HTTP.

* ``sweep-serial``: all 12 experiments, serial, no store.
* ``sweep-pool``: the same sweep on a warm ``WorkerPool`` of ``nproc``
  workers against a file store warmed in set-up.
* ``sweep-fleet``: the same sweep on a keyed local fleet of ``nproc``
  store-less workers.
* ``serve-mixed``: keyed ``repro-serve`` in its own process, answering a
  closed loop of ``nproc`` client threads on keep-alive connections.

Every end-to-end metric is defined for every workload, because every run
reports all of them.  A sweep's operations (``success_pct``,
``ops_per_s``) are its cells, a plan-less experiment counting as one, and
its latency sample is the whole sweep a user waits for; a serving run's
operations and latency samples are its requests.

Times of CPU-bound phases (set-up, sweeps) are reported in reference
seconds (see ``perfbench/hostclock.py``), with their wall-clock values
beside them under ``raw.<metric>``.  ``serve-mixed``'s load window,
request latency and request rate stay unscaled: a network timer, not the
CPU, sets them.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

from perfbench.hostclock import HostClock, Tally
from perfbench.tracing import ML_FAMILIES

NPROC = os.cpu_count() or 1
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Cells of a pool or fleet sweep re-run serially in-process and compared.
RERUN_CELLS = 6
#: Figures whose ``hybrid`` and ``extra_trees`` curves give the MAPE metrics.
MAPE_FIGURES = ("figure5", "figure6", "figure7", "figure8")
#: Plans whose published models ``serve-mixed`` serves.
SERVED_FIGURES = ("figure5", "figure6", "figure8")
SERVED_SERIES = ("hybrid", "extra_trees")
#: ``serve-mixed`` request classes: (name, requests per 10, path, rows per request).
REQUEST_MIX = (
    ("predict1", 7, "/predict", 1),
    ("predict64", 2, "/predict", 64),
    ("recommend", 1, "/recommend", 256),
)
#: Blocks of distinct pre-encoded requests; the closed loop cycles through them.
REQUEST_BLOCKS = 32
SERVE_MAIN = "import sys; from repro.serving.server import main; sys.exit(main())"

WORKLOADS = ("sweep-serial", "sweep-pool", "sweep-fleet", "serve-mixed")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_pct", "%"),
    ("hybrid_mape_pct", "%"),
    ("ml_mape_pct", "%"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
)

#: Span name -> (self-time metric, count metric, which count).
SPAN_METRICS = {
    "datasets.build": ("datasets.build_s", "datasets.builds", "spans"),
    "datasets.read": ("datasets.read_s", "datasets.bytes_read", "count"),
    "datasets.write": ("datasets.write_s", "datasets.bytes_written", "count"),
    "stencil.simulate": ("stencil.simulate_s", "stencil.configs", "count"),
    "fmm.simulate": ("fmm.simulate_s", "fmm.configs", "count"),
    "analytical.warm": ("analytical.warm_s", "analytical.rows_warmed", "count"),
    "analytical.predict": ("analytical.predict_s", None, None),
    "core.cell": ("core.cell_self_s", "core.cells", "spans"),
    "core.hybrid": ("core.hybrid_self_s", None, None),
    "ml.predict": ("ml.predict_s", None, None),
    "experiments.plan": ("experiments.plan_self_s", None, None),
    "experiments.planless": ("experiments.planless_s", None, None),
    "experiments.pool_spawn": ("experiments.pool_spawn_s", None, None),
    "experiments.pool_wait": ("experiments.pool_wait_s", None, None),
    "experiments.pool_close": ("experiments.pool_close_s", None, None),
    "distributed.spawn": ("distributed.spawn_s", None, None),
    "distributed.execute": ("distributed.execute_s", None, None),
    "distributed.close": ("distributed.close_s", None, None),
    "serving.handle": ("serving.handle_s", None, None),
    "serving.batcher": ("serving.batcher_wait_s", None, None),
    "serving.predict_rows": ("serving.predict_rows_s", None, None),
    "serving.load_model": ("serving.load_model_s", None, None),
}
for _family in ML_FAMILIES:
    SPAN_METRICS[f"ml.fit.{_family}"] = (f"ml.fit_s.{_family}", f"ml.fits.{_family}", "spans")

PER_LAYER = (
    [(metric, "s") for metric, _, _ in SPAN_METRICS.values()]
    + [(count, "bytes" if count.startswith("datasets.bytes") else "count")
       for _, count, _ in SPAN_METRICS.values() if count]
    + [
        ("core.cell_max_s", "s"),
        ("experiments.pool_dispatch_s", "s"),
        ("experiments.pool_busy_pct", "%"),
        ("experiments.pool_batches", "count"),
        ("distributed.relay_frames", "count"),
        ("distributed.requeued_cells", "count"),
        ("distributed.useful_result_pct", "%"),
        ("serving.rows_per_pass", "rows"),
        ("serving.p50_ms.predict1", "ms"),
        ("serving.p50_ms.predict64", "ms"),
        ("serving.p50_ms.recommend", "ms"),
        ("serving.p99_ms", "ms"),
        ("serving.latency_samples", "count"),
        ("obs.http_overhead_ms", "ms"),
        ("bench.teardown_s", "s"),
        ("bench.cpu_s", "s"),
        ("bench.worker_peak_rss_mb", "MiB"),
        ("bench.unattributed_pct", "%"),
        ("bench.trace_overhead_pct", "%"),
        ("host.steal_pct", "%"),
        ("host.reference_ms", "ms"),
    ]
)


class Run:
    """One benchmark run: its inputs, scratch space and optional tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir,
                 recorder=None, uninstall=None, started: float | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.recorder = recorder
        self._uninstall = uninstall
        #: When the benchmark process started: ``setup_s`` counts imports from here.
        self.started = time.perf_counter() if started is None else started
        self.setup_reps = 1 if recorder is not None else SETUP_REPS
        self.clock = HostClock(self.span)
        self.key = hashlib.sha256(f"perfbench-{seed}".encode()).hexdigest().encode()
        self.key_file = os.path.join(workdir, "fleet.key")
        with open(self.key_file, "wb") as fh:
            fh.write(self.key)

    def span(self, name: str):
        """A benchmark-level span when tracing, else a no-op."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def stop_tracing(self) -> None:
        """Write out this process's spans and unwrap, before the output checks."""
        if self.recorder is not None:
            self.recorder.flush()
            self._uninstall()

    def settings(self):
        """The default experiment settings, seeded by the run's seed."""
        from repro.experiments.runner import ExperimentSettings

        return ExperimentSettings(random_state=self.seed)


# --------------------------------------------------------------------------- #
# Host and process accounting
# --------------------------------------------------------------------------- #
def cpu_ticks() -> tuple[int, int]:
    """``(steal, busy + steal)`` jiffies from ``/proc/stat`` (zeros elsewhere)."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return steal, user + nice + system + irq + softirq + steal


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of busy CPU time the hypervisor stole between two samples."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def process_cpu_s(pid: int) -> float:
    """User+sys seconds a process has used so far (``/proc/<pid>/stat``; 0 if gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def repeated_setup(run: Run, setup, teardown, background: bool = False):
    """Set up ``run.setup_reps`` times.

    ``setup(rep, phase)`` does its work through ``phase(fn, ...)``, a
    :class:`Tally` of the run's clock.  Returns the last state and the
    median wall and reference seconds of a set-up.  Each earlier
    repetition is torn down before the next starts, or with *background*
    in a thread joined before returning, so nothing of it overlaps the
    timed phase.
    """
    walls, refs, closers, state = [], [], [], None
    try:
        for rep in range(run.setup_reps):
            if state is not None:
                if background:
                    closers.append(threading.Thread(target=teardown, args=(state,)))
                    closers[-1].start()
                else:
                    teardown(state)
            run.clock.checkpoint()
            phase = Tally(run.clock)
            with run.span("bench.setup"):
                state = setup(rep, phase)
            walls.append(phase.wall_s)
            refs.append(phase.reference_s)
    finally:
        for closer in closers:
            closer.join()
    return state, statistics.median(walls), statistics.median(refs)


def setup_metrics(run: Run, out: dict, setup, teardown, background: bool = False):
    """Imports plus the median set-up, as ``setup_s`` and ``raw.setup_s``.

    Imports count from the start of the benchmark process; they are scaled
    by the first checkpoint, which directly follows them.
    """
    import_s = time.perf_counter() - run.started
    import_ref = run.clock.scale(import_s, run.clock.checkpoint())
    state, prep_s, prep_ref = repeated_setup(run, setup, teardown, background)
    out["setup_s"] = import_ref + prep_ref
    out["raw.setup_s"] = import_s + prep_s
    return state


class CpuWindow:
    """User+sys seconds the program's processes use from now until :meth:`record`.

    The processes are the given children *pids* (pool or fleet workers, the
    server) and, with *include_self*, this process less the clock's
    checkpoints.  Set-up and teardown fall outside the window.  CPU seconds
    follow the host's speed only in part, so scaled or not they move too
    much with the host to be held to a bound: they are a per-layer metric.
    """

    def __init__(self, run: Run, pids=(), include_self: bool = True) -> None:
        self.clock = run.clock
        self.pids = list(pids)
        self.include_self = include_self
        self.cpu = self._used()

    def _used(self) -> float:
        used = sum(process_cpu_s(pid) for pid in self.pids)
        if self.include_self:
            own = resource.getrusage(resource.RUSAGE_SELF)
            used += own.ru_utime + own.ru_stime - self.clock.cpu_s
        return used

    def record(self, out: dict) -> None:
        """Set ``bench.cpu_s``."""
        out["bench.cpu_s"] = self._used() - self.cpu


def _wait_until(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out after {timeout:.0f} s waiting for {what}")
        time.sleep(0.005)


# --------------------------------------------------------------------------- #
# Sweep outputs: completeness, digest, MAPE
# --------------------------------------------------------------------------- #
def _cell_value(result, cell):
    """The MAPE the merged curve holds for *cell*, or ``None`` when missing."""
    curve = None if result is None else result.curves.get(cell.series)
    if curve is None:
        return None
    for point in curve.points:
        if point.fraction == cell.fraction:
            return point.mapes[cell.repeat] if cell.repeat < len(point.mapes) else None
    return None


def _numbers(obj):
    """Every number inside a result's curves and extras."""
    from repro.core.evaluation import LearningCurve

    if isinstance(obj, LearningCurve):
        for point in obj.points:
            yield point.fraction
            yield from point.mapes
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _numbers(value)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        for value in obj:
            yield from _numbers(value)
    elif isinstance(obj, (int, float, np.integer, np.floating)) and not isinstance(obj, bool):
        yield float(obj)


def _canonical(obj):
    """JSON-ready form of a result that keeps every float bit (``float.hex``)."""
    from repro.core.evaluation import LearningCurve

    if isinstance(obj, LearningCurve):
        return [obj.label, [[p.fraction.hex(), p.n_train, [float(m).hex() for m in p.mapes]]
                            for p in obj.points]]
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_canonical(value) for value in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return float(obj).hex()


def check_sweep(results: dict, settings) -> tuple[int, int, str]:
    """``(operations, failed, digest)`` of one sweep's results.

    A plan cell fails when its value is missing or not finite; a plan-less
    experiment fails when it is missing or holds a non-finite number.
    """
    from repro.experiments.plan import expand_cells, experiment_plan
    from repro.experiments.runner import EXPERIMENTS

    attempted = failed = 0
    canon = {}
    for name in EXPERIMENTS:
        result = results.get(name)
        plan = experiment_plan(name, settings)
        if plan is None:
            attempted += 1
            if result is None or not all(map(math.isfinite, _numbers(
                    [result.curves, result.extra]))):
                failed += 1
        else:
            for cell in expand_cells(plan):
                attempted += 1
                value = _cell_value(result, cell)
                if value is None or not math.isfinite(value):
                    failed += 1
        if result is not None:
            extra = {k: v for k, v in result.extra.items() if k != "published_models"}
            canon[name] = {"curves": _canonical(result.curves), "extra": _canonical(extra)}
    digest = hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()[:16]
    return attempted, failed, digest


def mape_means(results: dict) -> tuple[float, float]:
    """Mean ``hybrid`` and ``extra_trees`` MAPE over figures 5-8 (percent)."""
    hybrid, ml = [], []
    for name in MAPE_FIGURES:
        result = results.get(name)
        if result is None:
            return math.nan, math.nan
        hybrid.extend(result.curves["hybrid"].means)
        ml.extend(result.curves["extra_trees"].means)
    return float(np.mean(hybrid)), float(np.mean(ml))


def _plan_state(plan, store):
    """Dataset and factories of *plan*, resolved in-process from public pieces."""
    from repro.analytical.cache import AnalyticalPredictionCache
    from repro.experiments.plan import build_analytical, build_factory

    dataset = store.get(plan.dataset) if store is not None else plan.dataset.build()
    caches = {key: AnalyticalPredictionCache(build_analytical(key),
                                             dataset.feature_names).warm(dataset.X)
              for key in plan.cache_keys()}
    factories = {spec.label: build_factory(spec.factory, dataset,
                                           caches.get(spec.factory.analytical))
                 for spec in plan.series}
    return dataset, factories


def rerun_sample(results: dict, settings, seed: int, store, k: int = RERUN_CELLS) -> int:
    """Re-run *k* seed-drawn cells serially; count those that differ in any bit.

    Cells already missing or non-finite in *results* are skipped: they have
    been counted as failed by :func:`check_sweep`.
    """
    from repro.core.evaluation import evaluate_cell
    from repro.experiments.plan import PLANNED_EXPERIMENTS, expand_cells, experiment_plan

    cells = [(name, cell) for name in PLANNED_EXPERIMENTS
             for cell in expand_cells(experiment_plan(name, settings))]
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(cells), size=min(k, len(cells)), replace=False))
    states: dict[str, tuple] = {}
    mismatches = 0
    for index in picks:
        name, cell = cells[index]
        value = _cell_value(results.get(name), cell)
        if value is None or not math.isfinite(value):
            continue
        if name not in states:
            states[name] = _plan_state(experiment_plan(name, settings), store)
        dataset, factories = states[name]
        expected = evaluate_cell(cell, factories[cell.factory_key], dataset)
        if expected.mape != value:
            print(f"mismatch: {name} {cell.key}: {value!r} != serial {expected.mape!r}",
                  file=sys.stderr)
            mismatches += 1
    return mismatches


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #
def warm_plan(store, settings, name: str) -> None:
    """Simulate a plan's dataset and warm its analytical caches into *store*.

    Over every plan, the artifacts a first ``--store-dir`` run leaves
    behind, without the fits.
    """
    from repro.analytical.cache import AnalyticalPredictionCache
    from repro.experiments.plan import build_analytical, experiment_plan

    plan = experiment_plan(name, settings)
    dataset = store.get(plan.dataset)
    for key in plan.cache_keys():
        if not store.has_cache(key, plan.dataset):
            cache = AnalyticalPredictionCache(build_analytical(key), dataset.feature_names)
            store.save_analytical_cache(key, plan.dataset, cache.warm(dataset.X))


def _spawn_fleet(run: Run, fleet) -> list[int]:
    with run.span("distributed.spawn"):
        procs = fleet.spawn_local_workers(NPROC, auth_key_file=run.key_file)
        _wait_until(lambda: fleet.load()["workers"] == NPROC, 120.0,
                    "fleet workers to register")
    return [proc.pid for proc in procs]


def _sweep_setup(run: Run, kind: str, rep: int, phase: Tally) -> dict:
    from repro.datasets.store import DatasetStore
    from repro.experiments.plan import PLANNED_EXPERIMENTS

    state: dict = {"store": None, "pool": None, "fleet": None, "pids": []}
    if kind == "sweep-pool":
        from repro.experiments.pool import WorkerPool

        settings = run.settings()
        store = state["store"] = DatasetStore(os.path.join(run.workdir, f"store-{rep}"))
        for name in PLANNED_EXPERIMENTS:
            phase(warm_plan, store, settings, name)
        state["pool"] = phase(WorkerPool, NPROC)
        state["pids"] = sorted(state["pool"].worker_pids)
    elif kind == "sweep-fleet":
        from repro.distributed.coordinator import Coordinator

        fleet = state["fleet"] = phase(Coordinator, auth_key=run.key)
        try:
            state["pids"] = phase(_spawn_fleet, run, fleet)
        except BaseException:
            fleet.close()
            raise
    return state


def _sweep_teardown(state: dict) -> None:
    if state["pool"] is not None:
        state["pool"].close()
    if state["fleet"] is not None:
        state["fleet"].close()


def _one_sweep(run: Run, state: dict, settings, executor: str) -> tuple[float, float, dict]:
    """``(wall seconds, reference seconds, results)`` of one sweep.

    Each experiment is a phase of ``run.clock``: a reference checkpoint
    follows it, and neither the checkpoints nor the output checks count.
    """
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    def experiment(name):
        return run_experiment(name, settings=settings, executor=executor,
                              jobs=1 if executor == "serial" else NPROC,
                              store=state["store"], fleet=state["fleet"], pool=state["pool"])

    phase = Tally(run.clock)
    results = {}
    for name in EXPERIMENTS:
        try:
            results[name] = phase(experiment, name)
        except Exception:  # noqa: BLE001 - counted as failed operations, run goes on
            traceback.print_exc()
            run.clock.checkpoint()
    return phase.wall_s, phase.reference_s, results


def run_sweep(run: Run, out: dict) -> None:
    """Set up, time whole sweeps for at least ``run.seconds``, tear down, check."""
    kind = run.workload
    executor = {"sweep-serial": "serial", "sweep-pool": "process",
                "sweep-fleet": "remote"}[kind]
    import repro.experiments.runner  # noqa: F401  (the imports setup_s includes)

    if kind == "sweep-pool":
        import repro.experiments.pool  # noqa: F401
    elif kind == "sweep-fleet":
        import repro.distributed.coordinator  # noqa: F401
    settings = run.settings()

    # A fleet's close waits ~2 s on its accept thread: earlier fleets close
    # in the background while the next one starts.
    state = setup_metrics(run, out, lambda rep, phase: _sweep_setup(run, kind, rep, phase),
                          _sweep_teardown, background=kind == "sweep-fleet")
    cpu = CpuWindow(run, state["pids"])

    sweeps = []
    try:
        pool_before = state["pool"].stats if state["pool"] is not None else None
        run.clock.checkpoint()
        ticks = cpu_ticks()
        start = time.perf_counter()
        with run.span("bench.timed"):
            while not sweeps or time.perf_counter() - start < run.seconds:
                sweeps.append(_one_sweep(run, state, settings, executor))
        out["host.steal_pct"] = steal_pct(ticks, cpu_ticks())
        cpu.record(out)
        if state["pool"] is not None:
            after = state["pool"].stats
            for key in ("dispatch_seconds", "compute_seconds", "batches"):
                out[f"pool.{key}"] = after[key] - pool_before[key]
        if state["fleet"] is not None:
            stats = state["fleet"].stats
            out["distributed.relay_frames"] = (stats["datasets_served"]
                                               + stats["caches_served"])
            out["distributed.requeued_cells"] = stats["requeued_cells"]
            useful = stats["results_received"]
            out["distributed.useful_result_pct"] = (
                100.0 * useful / (useful + stats["duplicate_results"]) if useful else 0.0)
    finally:
        start = time.perf_counter()
        with run.span("bench.teardown"):
            _sweep_teardown(state)
        out["bench.teardown_s"] = time.perf_counter() - start
    out["host.reference_ms"] = 1000.0 * run.clock.median_s()
    out["peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_SELF)
    out["bench.worker_peak_rss_mb"] = (_maxrss_mb(resource.RUSAGE_CHILDREN)
                                       if kind != "sweep-serial" else 0.0)
    run.stop_tracing()

    attempted = failed = 0
    digests = set()
    for _, _, results in sweeps:
        n, bad, digest = check_sweep(results, settings)
        if kind != "sweep-serial":
            bad += rerun_sample(results, settings, run.seed, state["store"])
        attempted += n
        failed += bad
        digests.add(digest)
    if len(digests) > 1:
        print(f"sweeps of one run disagree: digests {sorted(digests)}", file=sys.stderr)
        failed = attempted
    walls = [wall for wall, _, _ in sweeps]
    refs = [ref for _, ref, _ in sweeps]
    out["digest"] = sorted(digests)[0]
    out["attempted"], out["failed"] = attempted, failed
    out["wall_s"], out["raw.wall_s"] = statistics.median(refs), statistics.median(walls)
    out["p50_ms"], out["raw.p50_ms"] = 1000.0 * out["wall_s"], 1000.0 * out["raw.wall_s"]
    out["ops_per_s"] = (attempted - failed) / sum(refs)
    out["raw.ops_per_s"] = (attempted - failed) / sum(walls)
    out["hybrid_mape_pct"], out["ml_mape_pct"] = mape_means(sweeps[0][2])


# --------------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------------- #
class _Server:
    """``repro-serve`` in its own process, launched as the console script does."""

    def __init__(self, run: Run, store_dir: str) -> None:
        cmd = [sys.executable, "-c", SERVE_MAIN, "--store-dir", store_dir,
               "--port", "0", "--auth-key-file", run.key_file]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("model server at http://"):
            self.stop()
            raise RuntimeError(f"repro-serve did not start (printed {line!r})")
        host_port = line.split("http://", 1)[1].split("/", 1)[0]
        host, port = host_port.rsplit(":", 1)
        self.host, self.port = host, int(port)
        self.key = run.key

    def request(self, conn, method: str, path: str, body: bytes = b""):
        from repro.obs.http import sign_request

        headers = {"Authorization": sign_request(self.key, method, path, body)}
        if body:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body or None, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()

    def stats(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            status, body = self.request(conn, "GET", "/stats")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _served_models(settings, store) -> list[tuple[str, str, np.ndarray]]:
    """``(plan fingerprint, series, dataset rows)`` of every served model."""
    from repro.experiments.plan import experiment_plan

    models = []
    for name in SERVED_FIGURES:
        plan = experiment_plan(name, settings)
        X = store.get(plan.dataset).X
        models.extend((plan.fingerprint, series, X) for series in SERVED_SERIES)
    return models


def _first_use_loads(server: _Server, models) -> None:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        for fingerprint, series, X in models:
            body = json.dumps({"plan": fingerprint, "series": series,
                               "rows": X[:1].tolist()}).encode()
            status, reply = server.request(conn, "POST", "/predict", body)
            if status != 200:
                raise RuntimeError(f"warm-up /predict answered {status}: {reply[:200]!r}")
    finally:
        conn.close()


def _serve_setup(run: Run, rep: int, phase: Tally) -> dict:
    """Publish figures 5-8 as ``run_all(..., publish_models=True)`` does, one
    experiment per phase, then start the server and load every served model."""
    from repro.datasets.store import DatasetStore
    from repro.experiments.runner import run_experiment

    settings = run.settings()
    store_dir = os.path.join(run.workdir, f"store-{rep}")
    store = DatasetStore(store_dir)
    results = {name: phase(run_experiment, name, settings=settings, store=store,
                           publish_models=True)
               for name in MAPE_FIGURES}
    server = phase(_Server, run, store_dir)
    try:
        models = _served_models(settings, store)
        phase(_first_use_loads, server, models)
    except BaseException:
        server.stop()
        raise
    return {"store": store, "server": server, "results": results, "models": models}


def make_requests(models, seed: int, key: bytes) -> list[tuple]:
    """The seed's request sequence, encoded and signed ahead of the loop.

    The sequence is made of blocks that each hold, for every served model,
    the mix's 7, 2 and 1 requests of each class, so that the few hundred
    requests a run gets through carry the mix's shares whatever the seed;
    the seed orders each block and draws every request's rows.  Entries
    are ``(class, path, body, headers, model index, rows)``.
    """
    from repro.obs.http import sign_request

    rng = np.random.default_rng(seed)
    block = [(cls, pick) for pick in range(len(models))
             for cls, (_, per_10, _, _) in enumerate(REQUEST_MIX) for _ in range(per_10)]
    sequence = []
    for _ in range(REQUEST_BLOCKS):
        for index in rng.permutation(len(block)):
            cls, pick = block[index]
            name, _, path, n_rows = REQUEST_MIX[cls]
            fingerprint, series, X = models[pick]
            rows = X[rng.integers(len(X), size=n_rows)]
            body = json.dumps({"plan": fingerprint, "series": series,
                               "rows": rows.tolist()}).encode()
            headers = {"Content-Type": "application/json",
                       "Authorization": sign_request(key, "POST", path, body)}
            sequence.append((name, path, body, headers, int(pick), rows))
    return sequence


def _client(host: str, port: int, sequence, counter, deadline: float, records: list,
            loop_time: list) -> None:
    """One closed-loop caller: send, wait for the whole reply, repeat."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    start = time.perf_counter()
    while True:
        index = next(counter)
        if time.perf_counter() >= deadline:
            break
        name, path, body, headers, _, _ = sequence[index % len(sequence)]
        t0 = time.perf_counter()
        try:
            conn.request("POST", path, body=body, headers=headers)
            response = conn.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            status, data = 0, repr(exc).encode()
            conn.close()
            conn = http.client.HTTPConnection(host, port, timeout=60)
        records.append((index, name, t0, time.perf_counter(), status, data))
    loop_time.append(time.perf_counter() - start)
    conn.close()


def check_responses(records, sequence, models, store) -> int:
    """Responses whose status or predictions differ from in-process predictions.

    The reference is ``decode_model(store.model_bytes(...)).predict_rows(rows)``
    for the same rows; every float must match exactly.
    """
    from repro.serving.model_io import decode_model

    decoded: dict[int, object] = {}
    expected: dict[int, np.ndarray] = {}
    bad = 0
    for index, name, _, _, status, data in records:
        slot = index % len(sequence)
        _, _, _, _, pick, rows = sequence[slot]
        if slot not in expected:
            if pick not in decoded:
                fingerprint, series, _ = models[pick]
                decoded[pick] = decode_model(store.model_bytes(fingerprint, series))
            expected[slot] = decoded[pick].predict_rows(rows)
        want = expected[slot]
        try:
            reply = json.loads(data) if status == 200 else None
        except ValueError:
            reply = None
        ok = isinstance(reply, dict) and reply.get("predictions") == want.tolist()
        if ok and name == "recommend":
            best = int(np.argmin(want))
            ok = reply.get("index") == best and reply.get("predicted") == float(want[best])
        bad += not ok
    return bad


def _quantile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return 1000.0 * float(np.quantile(np.asarray(values), q))


def run_serve(run: Run, out: dict) -> None:
    """Publish and serve, drive the closed loop for ``run.seconds``, check replies."""
    import repro.experiments.runner  # noqa: F401  (the imports setup_s includes)
    import repro.serving.model_io  # noqa: F401

    state = setup_metrics(run, out, lambda rep, phase: _serve_setup(run, rep, phase),
                          lambda state: state["server"].stop())
    server, store, models = state["server"], state["store"], state["models"]
    try:
        sequence = make_requests(models, run.seed, run.key)
        stats_before = server.stats()
        cpu = CpuWindow(run, [server.proc.pid], include_self=False)
        run.clock.checkpoint()
        counter = itertools.count()
        records: list = []
        loop_time: list = []
        ticks = cpu_ticks()
        start = time.perf_counter()
        deadline = start + run.seconds
        with run.span("bench.timed"):
            threads = [threading.Thread(target=_client, args=(
                server.host, server.port, sequence, counter, deadline, records, loop_time))
                for _ in range(NPROC)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = time.perf_counter() - start
        out["host.steal_pct"] = steal_pct(ticks, cpu_ticks())
        run.clock.checkpoint()
        cpu.record(out)
        stats_after = server.stats()
    finally:
        start = time.perf_counter()
        with run.span("bench.teardown"):
            server.stop()
        out["bench.teardown_s"] = time.perf_counter() - start
    out["host.reference_ms"] = 1000.0 * run.clock.median_s()
    out["peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
    out["bench.worker_peak_rss_mb"] = 0.0  # no pool or fleet workers
    run.stop_tracing()

    latencies = [t1 - t0 for _, _, t0, t1, _, _ in records]
    out["attempted"] = len(records)
    out["failed"] = check_responses(records, sequence, models, store)
    out["wall_s"] = wall
    out["p50_ms"] = _quantile_ms(latencies, 0.5)
    out["ops_per_s"] = (out["attempted"] - out["failed"]) / wall
    out["hybrid_mape_pct"], out["ml_mape_pct"] = mape_means(state["results"])
    for name, _, _, _ in REQUEST_MIX:
        out[f"serving.p50_ms.{name}"] = _quantile_ms(
            [t1 - t0 for _, cls, t0, t1, _, _ in records if cls == name], 0.5)
    out["serving.p99_ms"] = _quantile_ms(latencies, 0.99)
    out["serving.latency_samples"] = len(latencies)
    batches = stats_after["batches"] - stats_before["batches"]
    out["serving.rows_per_pass"] = (
        (stats_after["batched_rows"] - stats_before["batched_rows"]) / batches
        if batches else 0.0)
    busy = sum(t1 - t0 for _, _, t0, t1, _, _ in records)
    loop = sum(loop_time)
    out["client_unattributed_pct"] = 100.0 * (loop - busy) / loop if loop else 0.0


def run_workload(run: Run) -> dict:
    """Run *run*'s workload; return its raw measurements and checks."""
    out: dict = {}
    if run.workload == "serve-mixed":
        run_serve(run, out)
    else:
        run_sweep(run, out)
    return out
