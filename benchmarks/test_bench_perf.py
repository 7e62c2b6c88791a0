"""Performance-trajectory tracking.

Appends one timestamped entry per benchmark run to the ``history`` list
in ``BENCH_engine.json`` at the repository root (entries from before the
history format are migrated in place), so the perf trajectory accumulates
across PRs instead of each run overwriting the last.

Two benchmarks are tracked:

* ``scheduler_speedup`` — the plan-based experiment scheduler running a
  quick multi-experiment sweep serially vs. through a *warm*
  :class:`~repro.experiments.pool.WorkerPool` with ``--jobs 4`` (both
  against a pre-warmed dataset store, so only the scheduling changes).
  Pooled sweeps are timed after a first, cold invocation of the same
  pool — the steady-state an experiment sequence sees: workers already
  spawned and per-plan memos warm.  One sweep takes a few tenths of a
  second, so one pair of them says little: ``SCHEDULER_SAMPLES``
  alternating serial/warm pairs are timed and the speedup is the ratio
  of their medians, recorded with each side's IQR.  The cold first
  invocation and a phase breakdown (spawn, dispatch, compute, batches)
  are recorded alongside.  The speedup is
  recorded here and enforced by ``bench_gate.py`` (it tracks the host's
  core count, so the floor is conditional on ``cpus``); the rows are
  asserted bit-identical in-test, which *is* hardware-independent.
* ``exact_engine`` — the exact tree builder against the frozen builder
  it replaced (:mod:`repro.testing.tree_reference`) on a full registry
  dataset (``stencil-blocked``, n=3364): the RandomForest(100) fit
  speedup, the ratio of medians of ``ENGINE_SAMPLES`` alternating
  reference/exact fit pairs recorded with each side's IQR, is asserted
  >= 1.5x and gated; the ExtraTrees(100) fit speedup (best of two fits
  each) is recorded.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import repro.ml._batched
from repro.datasets import DatasetStore
from repro.datasets.registry import load_dataset
from repro.experiments import run_all
from repro.experiments.runner import ExperimentSettings
from repro.ml import ExtraTreesRegressor, RandomForestRegressor
from repro.testing.tree_reference import build_forest_batched as build_forest_reference

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_engine.json"

#: Acceptance threshold of the level-pass rewrite of the exact builder:
#: its RandomForest fit against the frozen reference builder.
MIN_EXACT_FIT_SPEEDUP = 1.5
#: Full registry dataset (n = 3364) and forest size the engine benchmark fits.
ENGINE_DATASET = "stencil-blocked"
ENGINE_TREES = 100
#: Alternating reference / exact RandomForest fit pairs the gated engine
#: speedup is the ratio of medians of.  As the best of two fits per side
#: it read 1.80-2.52x across runs on one 2-cpu host, a spread wider than
#: the gate's 25% tolerance; five pairs add 14-20 s to the benchmark there.
ENGINE_SAMPLES = 5

#: Experiments of the scheduler-speedup sweep (several figures sharing
#: datasets, so the store amortizes generation across them).
SCHEDULER_SWEEP = ("figure3_stencil", "figure5", "figure6", "figure7")
SCHEDULER_JOBS = 4
#: Alternating serial / warm-pool sweep pairs the scheduler speedup is the
#: ratio of medians of.  The first warm sweeps on a fresh pool are at times
#: much slower than the rest (five of nine read 0.21-0.27 s against
#: 0.15-0.18 s in one run on a 2-cpu host), so the median needs many more
#: than five pairs to land on a steady one.
SCHEDULER_SAMPLES = 15


def _time(func) -> tuple[float, object]:
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def _iqr(values: list[float]) -> float:
    """Interquartile range of *values*."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _best_of(func, reps: int = 2) -> float:
    """Best wall-clock of *reps* runs (tames scheduler noise on CI boxes)."""
    return min(_time(func)[0] for _ in range(reps))


def _append_history(entry: dict) -> None:
    """Append *entry* to the history list, migrating the pre-history format."""
    history: list = []
    if RESULT_PATH.exists():
        stored = json.loads(RESULT_PATH.read_text())
        if isinstance(stored, dict) and "history" in stored:
            history = stored["history"]
        elif stored:
            # One flat pre-history result becomes the first history entry.
            history = [stored]
    entry = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             **entry}
    history.append(entry)
    RESULT_PATH.write_text(json.dumps({"history": history}, indent=2) + "\n")


def _platform_fields() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }


@contextlib.contextmanager
def _reference_builder():
    """Grow every tree on the frozen reference builder in the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.ml._batched, "build_forest_batched", build_forest_reference)
        yield


@pytest.mark.benchmark(group="engines")
def test_exact_engine_speedup():
    """The exact builder against the frozen builder it replaced.

    The asserted workload is the acceptance criterion of the exact
    builder's level-pass rewrite: a RandomForest fit on a full registry
    dataset (n >= 2000) at least 1.5x as fast as the builder it replaced
    (kept frozen in :mod:`repro.testing.tree_reference`).  The ExtraTrees
    fit, the paper's model, is recorded alongside.
    """
    dataset = load_dataset(ENGINE_DATASET)
    X, y = dataset.X, dataset.y

    def fit_rf():
        return RandomForestRegressor(n_estimators=ENGINE_TREES, random_state=0).fit(X, y)

    def fit_et():
        return ExtraTreesRegressor(n_estimators=ENGINE_TREES, random_state=0).fit(X, y)

    # Reference and exact fits alternate, so a drift in host speed hits
    # both sides alike.
    rf_reference: list[float] = []
    rf_exact: list[float] = []
    for _ in range(ENGINE_SAMPLES):
        with _reference_builder():
            rf_reference.append(_time(fit_rf)[0])
        rf_exact.append(_time(fit_rf)[0])
    with _reference_builder():
        t_et_reference = _best_of(fit_et)
    t_et_exact = _best_of(fit_et)
    t_rf_reference = statistics.median(rf_reference)
    t_rf_exact = statistics.median(rf_exact)
    rf_speedup = t_rf_reference / t_rf_exact
    et_speedup = t_et_reference / t_et_exact

    entry = {
        "benchmark": "exact_engine",
        **_platform_fields(),
        "workloads": {
            "exact_random_forest_fit": {
                "description": f"RandomForestRegressor(n_estimators={ENGINE_TREES}).fit "
                               f"on {ENGINE_DATASET} (n={X.shape[0]}), exact builder "
                               f"vs the frozen exact reference: medians of "
                               f"{ENGINE_SAMPLES} alternating pairs",
                "n_trees": ENGINE_TREES,
                "reference_seconds": round(t_rf_reference, 4),
                "exact_seconds": round(t_rf_exact, 4),
                "samples": ENGINE_SAMPLES,
                "reference_iqr_seconds": round(_iqr(rf_reference), 4),
                "exact_iqr_seconds": round(_iqr(rf_exact), 4),
                "speedup": round(rf_speedup, 2),
                "threshold": MIN_EXACT_FIT_SPEEDUP,
            },
            "exact_extra_trees_fit": {
                "description": f"ExtraTreesRegressor(n_estimators={ENGINE_TREES}).fit "
                               f"on {ENGINE_DATASET} (n={X.shape[0]}), exact builder "
                               f"vs the frozen exact reference: best of 2 fits each",
                "n_trees": ENGINE_TREES,
                "reference_seconds": round(t_et_reference, 4),
                "exact_seconds": round(t_et_exact, 4),
                "speedup": round(et_speedup, 2),
            },
        },
    }
    _append_history(entry)
    print()
    print(json.dumps(entry["workloads"], indent=2))

    assert rf_speedup >= MIN_EXACT_FIT_SPEEDUP, (
        f"exact RandomForest fit speedup {rf_speedup:.2f}x over the "
        f"reference builder below {MIN_EXACT_FIT_SPEEDUP}x")


@pytest.mark.benchmark(group="scheduler")
def test_scheduler_speedup(tmp_path):
    from repro.experiments.pool import WorkerPool

    settings = ExperimentSettings.quick()
    store_dir = tmp_path / "store"

    # Pre-warm the store so dataset generation and analytical warm-up are
    # shared, identical costs for both executors.
    serial = run_all(settings, SCHEDULER_SWEEP, store=DatasetStore(store_dir))

    def serial_sweep():
        return run_all(settings, SCHEDULER_SWEEP, store=DatasetStore(store_dir))

    with WorkerPool(SCHEDULER_JOBS) as pool:
        def pooled_sweep():
            return run_all(settings, SCHEDULER_SWEEP,
                           store=DatasetStore(store_dir),
                           executor="process", jobs=SCHEDULER_JOBS, pool=pool)

        # Cold: workers freshly spawned, per-plan memos empty.  Warm: every
        # later sweep on the same pool — the steady state an experiment
        # sequence sees, and the timed quantity.  Serial and warm sweeps
        # alternate, so a drift in host speed hits both sides alike.
        t_cold, cold = _time(pooled_sweep)
        stats_cold = dict(pool.stats)
        serial_times: list[float] = []
        warm_times: list[float] = []
        sampled = []
        for _ in range(SCHEDULER_SAMPLES):
            for times, sweep in ((serial_times, serial_sweep),
                                 (warm_times, pooled_sweep)):
                elapsed, result = _time(sweep)
                times.append(elapsed)
                sampled.append(result)
        stats_warm = dict(pool.stats)
        t_serial = statistics.median(serial_times)
        t_warm = statistics.median(warm_times)

        # Observability overhead, informational: the same warm sweep
        # with a trace collection active (a span per cell shipped back
        # from every pool worker) — batch shapes and rows are identical
        # either way, so the delta is the price of tracing *on*.
        from repro.obs import TRACER

        with TRACER.collect() as trace_spans:
            t_traced, traced = _time(pooled_sweep)

        def per_warm_sweep(key):
            return (stats_warm[key] - stats_cold[key]) / SCHEDULER_SAMPLES

        phases = {
            "pool_spawn_seconds": round(pool.stats["spawn_seconds"], 4),
            "dispatch_seconds": round(per_warm_sweep("dispatch_seconds"), 4),
            "compute_seconds": round(per_warm_sweep("compute_seconds"), 4),
            "batches": round(per_warm_sweep("batches")),
        }
        spawn_count = pool.spawn_count

    for name in SCHEDULER_SWEEP:
        for result in (cold, traced, *sampled):
            assert result[name].rows() == serial[name].rows(), (
                f"pooled or re-run serial rows differ from serial for {name}")
    assert spawn_count == SCHEDULER_JOBS, (
        f"warm pool respawned workers: {spawn_count} spawns for "
        f"{SCHEDULER_JOBS} jobs across {SCHEDULER_SAMPLES + 2} sweeps")

    # The overhead guard: tracing *off* must be free.  A disabled span
    # site costs one attribute check; as many disabled entries as the
    # traced sweep actually produced spans must cost well under 2% of
    # the measured warm-sweep wall time.
    n_spans = len(trace_spans)
    probe_start = time.perf_counter()
    for _ in range(n_spans):
        with TRACER.span("overhead-probe"):
            pass
    t_disabled_spans = time.perf_counter() - probe_start
    assert t_disabled_spans < 0.02 * t_warm, (
        f"{n_spans} disabled span sites cost {t_disabled_spans:.4f}s — "
        f">= 2% of the {t_warm:.4f}s warm sweep; tracing is no longer "
        "free when off")

    # Recorded here, enforced in bench_gate.py: > 1.0 on multi-core hosts,
    # a near-parity floor on single-core boxes where parallel cannot win.
    speedup = t_serial / t_warm
    entry = {
        "benchmark": "scheduler_speedup",
        **_platform_fields(),
        "workloads": {
            "run_all_quick_sweep": {
                "description": f"run_all({', '.join(SCHEDULER_SWEEP)}; quick, warm store) "
                               f"serial vs warm WorkerPool --jobs {SCHEDULER_JOBS}: "
                               f"medians of {SCHEDULER_SAMPLES} alternating pairs "
                               f"after one cold pooled sweep; phases per warm sweep",
                "serial_seconds": round(t_serial, 4),
                "process_cold_seconds": round(t_cold, 4),
                "process_seconds": round(t_warm, 4),
                "samples": SCHEDULER_SAMPLES,
                "serial_iqr_seconds": round(_iqr(serial_times), 4),
                "process_iqr_seconds": round(_iqr(warm_times), 4),
                "jobs": SCHEDULER_JOBS,
                "speedup": round(speedup, 2),
                "phases": phases,
                # Informational, not gated: wall-time cost of running the
                # same warm sweep with a trace collection active, and the
                # measured cost of the equivalent number of *disabled*
                # span sites (the quantity the 2% in-test guard bounds).
                "tracing": {
                    "process_traced_seconds": round(t_traced, 4),
                    "traced_minus_warm_seconds": round(t_traced - t_warm, 4),
                    "spans": n_spans,
                    "disabled_spans_seconds": round(t_disabled_spans, 6),
                },
            },
        },
    }
    _append_history(entry)
    print()
    print(json.dumps(entry["workloads"], indent=2))


#: Acceptance threshold of the serving-tier PR: serving N rows as one
#: micro-batched request must beat N sequential single-row requests by
#: at least this factor.  The ratio divides out raw hardware speed (both
#: sides run the same model on the same host), so it is gateable.
MIN_SERVING_BATCH_SPEEDUP = 3.0
SERVING_BATCH_ROWS = 64


@pytest.mark.benchmark(group="serving")
def test_serving_latency():
    """Throughput of the model server: batched vs single-row requests.

    Publishes the quick Figure-5 models into an in-memory store, serves
    them over real HTTP, and times ``SERVING_BATCH_ROWS`` sequential
    single-row ``/predict`` requests against one request carrying all
    rows at once (the vectorized path micro-batching converges to under
    concurrent load).  Records the speedup (gated, relative) plus
    single-row latency percentiles (informational).
    """
    import json as _json
    import urllib.request

    from repro.experiments.plan import experiment_plan
    from repro.experiments.scheduler import resolve_data
    from repro.serving import ModelServer, decode_model, publish_plan_models

    settings = ExperimentSettings.quick()
    plan = experiment_plan("figure5", settings)
    store = DatasetStore("memory://")
    dataset, caches = resolve_data(plan.dataset, plan.cache_keys(), store)
    publish_plan_models(plan, dataset, caches, store)
    rows = dataset.X[:SERVING_BATCH_ROWS]

    def post(url, body):
        req = urllib.request.Request(url, data=_json.dumps(body).encode(),
                                     headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req) as resp:
            return _json.loads(resp.read())

    with ModelServer(store) as server:
        url = server.url + "predict"

        def body(chunk):
            return {"plan": plan.fingerprint, "series": "hybrid",
                    "rows": chunk.tolist()}

        post(url, body(rows[:1]))  # load + decode the model off the clock

        def singles():
            latencies = []
            for row in rows:
                t, out = _time(lambda r=row: post(url, body(r[None, :])))
                latencies.append(t)
                assert len(out["predictions"]) == 1
            return latencies

        t_singles, latencies = _time(singles)
        t_batch = _best_of(lambda: post(url, body(rows)), reps=3)
        batched = np.array(post(url, body(rows))["predictions"])

    # Value check rides along: the batched reply must equal the
    # concatenation of what single-row service would produce.
    served = decode_model(store.model_bytes(plan.fingerprint, "hybrid"))
    assert np.array_equal(batched, served.predict_rows(rows))

    speedup = t_singles / t_batch
    lat = np.sort(np.array(latencies))
    entry = {
        "benchmark": "serving_latency",
        **_platform_fields(),
        "workloads": {
            "predict_batch_vs_single": {
                "description": f"ModelServer /predict: {SERVING_BATCH_ROWS} "
                               f"single-row requests vs one "
                               f"{SERVING_BATCH_ROWS}-row request (hybrid, "
                               f"quick figure5)",
                "single_rows_seconds": round(t_singles, 4),
                "batch_seconds": round(t_batch, 4),
                "rows": SERVING_BATCH_ROWS,
                "speedup": round(speedup, 2),
                "threshold": MIN_SERVING_BATCH_SPEEDUP,
            },
            "single_row_latency": {
                "description": "per-request wall clock of the single-row "
                               "/predict path (informational)",
                "p50_ms": round(float(lat[len(lat) // 2]) * 1e3, 3),
                "p99_ms": round(float(lat[min(len(lat) - 1, int(len(lat) * 0.99))]) * 1e3, 3),
                "max_ms": round(float(lat[-1]) * 1e3, 3),
            },
        },
    }
    _append_history(entry)
    print()
    print(json.dumps(entry["workloads"], indent=2))

    assert speedup >= MIN_SERVING_BATCH_SPEEDUP, (
        f"batched serving speedup {speedup:.1f}x below "
        f"{MIN_SERVING_BATCH_SPEEDUP}x")
