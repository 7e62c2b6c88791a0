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
  The pooled sweep is timed on its *second* consecutive invocation of
  the same pool — the steady-state an experiment sequence sees: workers
  already spawned, per-plan memos warm, the dataset mapped via shared
  memory.  The cold first invocation and a phase breakdown (spawn,
  dispatch, compute, merge) are recorded alongside.  The speedup is
  recorded here and enforced by ``bench_gate.py`` (it tracks the host's
  core count, so the floor is conditional on ``cpus``); the rows are
  asserted bit-identical in-test, which *is* hardware-independent.
* ``hist_engine`` — histogram-binned split search (``tree_method="hist"``)
  against exact split search on a full registry dataset
  (``stencil-blocked``, n=3364): RandomForest fit speedup (asserted
  >= 2x), ExtraTrees fit speedup (recorded), and the quick Figure-5
  quality check (held-out R^2 of the binned extra-trees model within
  0.02 of the exact model's, plus both methods' learning-curve MAPEs).

Scale the hist workload down with ``REPRO_BENCH_HIST_TREES`` if a
constrained machine cannot afford the 100-tree fits.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import DatasetStore
from repro.datasets.registry import load_dataset
from repro.experiments import experiment_plan, figure5, run_all, run_plan
from repro.experiments.runner import ExperimentSettings
from repro.ml import ExtraTreesRegressor, RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.model_selection import train_test_split

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_engine.json"

#: Acceptance thresholds of the histogram-engine PR.
MIN_HIST_FIT_SPEEDUP = 2.0
MAX_HIST_R2_GAP = 0.02
HIST_DATASET = "stencil-blocked"  # full registry dataset, n = 3364 >= 2000

#: Experiments of the scheduler-speedup sweep (several figures sharing
#: datasets, so the store amortizes generation across them).
SCHEDULER_SWEEP = ("figure3_stencil", "figure5", "figure6", "figure7")
SCHEDULER_JOBS = 4


def _time(func) -> tuple[float, object]:
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


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


def _with_tree_method(plan, tree_method: str):
    """*plan* with every series' estimator set to *tree_method*."""
    return dataclasses.replace(plan, series=tuple(
        dataclasses.replace(series, factory=dataclasses.replace(
            series.factory, estimator=dataclasses.replace(
                series.factory.estimator, tree_method=tree_method)))
        for series in plan.series))


@pytest.mark.benchmark(group="engines")
def test_hist_engine_speedup():
    """Histogram-binned split search vs the exact batched engine.

    The asserted workload is the acceptance criterion of the hist-engine
    PR: a RandomForest fit on a full registry dataset (n >= 2000) at
    least twice as fast as the exact batched engine, with the binned
    extra-trees model's held-out R^2 on the quick Figure-5 dataset
    within 0.02 of the exact engine's.
    """
    n_trees = int(os.environ.get("REPRO_BENCH_HIST_TREES", "100"))
    dataset = load_dataset(HIST_DATASET)
    X, y = dataset.X, dataset.y

    def fit_rf(tree_method):
        return lambda: RandomForestRegressor(
            n_estimators=n_trees, random_state=0, tree_method=tree_method,
        ).fit(X, y)

    def fit_et(tree_method):
        return lambda: ExtraTreesRegressor(
            n_estimators=n_trees, random_state=0, tree_method=tree_method,
        ).fit(X, y)

    t_rf_exact = _best_of(fit_rf("exact"))
    t_rf_hist = _best_of(fit_rf("hist"))
    t_et_exact = _best_of(fit_et("exact"))
    t_et_hist = _best_of(fit_et("hist"))
    rf_speedup = t_rf_exact / t_rf_hist
    et_speedup = t_et_exact / t_et_hist

    # Quick Figure-5 quality: the binned engine must reproduce the
    # learning-curve experiment.  R^2 is compared at the curve's largest
    # ML training fraction; both engines' MAPE curves are recorded.
    settings = ExperimentSettings.quick()
    fig5_exact = figure5(settings=settings)
    fig5_hist = run_plan(_with_tree_method(experiment_plan("figure5", settings), "hist"))
    curves = {
        label: {
            "exact": [round(p.mean, 3) for p in fig5_exact.curves[label].points],
            "hist": [round(p.mean, 3) for p in fig5_hist.curves[label].points],
        }
        for label in fig5_exact.curves
    }
    fig5_ds = load_dataset("stencil-grid-only", max_configs=settings.max_configs,
                           random_state=0)
    Xtr, Xte, ytr, yte = train_test_split(fig5_ds.X, fig5_ds.y, test_size=0.25,
                                          random_state=0)
    r2_exact = r2_score(yte, ExtraTreesRegressor(
        n_estimators=settings.n_estimators, random_state=0,
        tree_method="exact").fit(Xtr, ytr).predict(Xte))
    r2_hist = r2_score(yte, ExtraTreesRegressor(
        n_estimators=settings.n_estimators, random_state=0,
        tree_method="hist").fit(Xtr, ytr).predict(Xte))

    entry = {
        "benchmark": "hist_engine",
        **_platform_fields(),
        "workloads": {
            "random_forest_fit": {
                "description": f"RandomForestRegressor(n_estimators={n_trees}).fit "
                               f"on {HIST_DATASET} (n={X.shape[0]}), hist vs batched",
                "n_trees": n_trees,
                "exact_seconds": round(t_rf_exact, 4),
                "hist_seconds": round(t_rf_hist, 4),
                "speedup": round(rf_speedup, 2),
                "threshold": MIN_HIST_FIT_SPEEDUP,
            },
            "extra_trees_fit": {
                "description": f"ExtraTreesRegressor(n_estimators={n_trees}).fit "
                               f"on {HIST_DATASET} (n={X.shape[0]}), hist vs batched",
                "n_trees": n_trees,
                "exact_seconds": round(t_et_exact, 4),
                "hist_seconds": round(t_et_hist, 4),
                "speedup": round(et_speedup, 2),
            },
            "figure5_quick_quality": {
                "description": "figure5(quick): hist vs exact engines",
                "r2_exact": round(r2_exact, 4),
                "r2_hist": round(r2_hist, 4),
                "r2_gap": round(abs(r2_exact - r2_hist), 4),
                "threshold": MAX_HIST_R2_GAP,
                "mape_curves": curves,
            },
        },
    }
    _append_history(entry)
    print()
    print(json.dumps(entry["workloads"], indent=2))

    assert rf_speedup >= MIN_HIST_FIT_SPEEDUP, (
        f"hist RandomForest fit speedup {rf_speedup:.2f}x below "
        f"{MIN_HIST_FIT_SPEEDUP}x")
    assert abs(r2_exact - r2_hist) <= MAX_HIST_R2_GAP, (
        f"hist R^2 {r2_hist:.4f} deviates from exact {r2_exact:.4f} by more "
        f"than {MAX_HIST_R2_GAP}")


@pytest.mark.benchmark(group="scheduler")
def test_scheduler_speedup(tmp_path):
    from repro.experiments.pool import WorkerPool

    settings = ExperimentSettings.quick()
    store_dir = tmp_path / "store"

    # Pre-warm the store so dataset generation and analytical warm-up are
    # shared, identical costs for both executors.
    run_all(settings, SCHEDULER_SWEEP, store=DatasetStore(store_dir))

    t_serial, serial = _time(
        lambda: run_all(settings, SCHEDULER_SWEEP, store=DatasetStore(store_dir)))

    with WorkerPool(SCHEDULER_JOBS) as pool:
        def pooled_sweep():
            return run_all(settings, SCHEDULER_SWEEP,
                           store=DatasetStore(store_dir),
                           executor="process", jobs=SCHEDULER_JOBS, pool=pool)

        # Cold: workers freshly spawned, per-plan memos empty.  Warm: the
        # second consecutive sweep on the same pool — the steady state an
        # experiment sequence sees, and the timed quantity.
        t_cold, cold = _time(pooled_sweep)
        stats_cold = dict(pool.stats)
        t_warm, warm = _time(pooled_sweep)

        # Observability overhead, informational: the same warm sweep
        # with a trace collection active (a span per cell shipped back
        # from every pool worker) — batch shapes and rows are identical
        # either way, so the delta is the price of tracing *on*.
        from repro.obs import TRACER

        with TRACER.collect() as trace_spans:
            t_traced, traced = _time(pooled_sweep)
        phases = {
            "pool_spawn_seconds": round(pool.stats["spawn_seconds"], 4),
            "dispatch_seconds": round(
                pool.stats["dispatch_seconds"] - stats_cold["dispatch_seconds"], 4),
            "compute_seconds": round(
                pool.stats["compute_seconds"] - stats_cold["compute_seconds"], 4),
            "merge_seconds": round(
                pool.stats["merge_seconds"] - stats_cold["merge_seconds"], 4),
            "batches": pool.stats["batches"] - stats_cold["batches"],
            "cells": pool.stats["cells"] - stats_cold["cells"],
        }
        spawn_count = pool.spawn_count

    for name in SCHEDULER_SWEEP:
        assert cold[name].rows() == serial[name].rows(), (
            f"cold pooled rows differ from serial for {name}")
        assert warm[name].rows() == serial[name].rows(), (
            f"warm pooled rows differ from serial for {name}")
        assert traced[name].rows() == serial[name].rows(), (
            f"traced pooled rows differ from serial for {name}")
    assert spawn_count == SCHEDULER_JOBS, (
        f"warm pool respawned workers: {spawn_count} spawns for "
        f"{SCHEDULER_JOBS} jobs across three sweeps")

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
                               f"serial vs warm WorkerPool --jobs {SCHEDULER_JOBS} "
                               f"(second consecutive sweep on one pool)",
                "serial_seconds": round(t_serial, 4),
                "process_cold_seconds": round(t_cold, 4),
                "process_seconds": round(t_warm, 4),
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
    from repro.experiments.scheduler import _resolve_data
    from repro.serving import ModelServer, decode_model, publish_plan_models

    settings = ExperimentSettings.quick()
    plan = experiment_plan("figure5", settings)
    store = DatasetStore("memory://")
    dataset, caches = _resolve_data(plan, store)
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
