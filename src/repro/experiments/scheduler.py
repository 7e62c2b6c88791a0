"""Pluggable execution of experiment plans.

:func:`run_plan` takes an :class:`~repro.experiments.plan.ExperimentPlan`,
expands it into :class:`~repro.core.evaluation.EvalCell` tasks and
dispatches them through one of three executors:

* ``"serial"`` — the cells run in plan order in the calling process;
* ``"thread"`` — a ``ThreadPoolExecutor`` (tree fitting spends its time in
  NumPy kernels that release the GIL, so threads give real concurrency);
* ``"process"`` — a persistent :class:`~repro.experiments.pool.WorkerPool`
  of worker processes.  Cells are fused into cost-balanced batches by a
  greedy LPT shaper driven by the pool module's calibrated
  :class:`~repro.experiments.pool.CostModel`, and the resolved dataset is
  shipped zero-copy through POSIX shared memory (workers attach read-only
  views; only a tiny handle crosses the pickle boundary).  Workers
  resolve the remaining plan state (analytical caches, factories) once
  per plan — from the store when a shareable locator exists — and keep it
  in a bounded per-process memo across batches *and plans*: pass an
  external pool (see ``run_all``/the CLI, which create one per experiment
  sequence) and consecutive plans skip worker spawn and state rebuild
  entirely.
* ``"remote"`` — a TCP worker fleet (:mod:`repro.distributed`): cells are
  leased in batches to :mod:`repro.distributed.worker` processes on any
  number of hosts, with heartbeat/requeue fault tolerance and store
  bootstrap for cold workers.  Pass an existing
  :class:`~repro.distributed.coordinator.Coordinator` as ``fleet`` (the
  CLI's ``--bind``/``--workers`` mode); without one a throwaway
  coordinator plus ``jobs`` localhost workers is spun up per plan.

Because seeds are derived at planning time and the merge is performed in
plan order, all four executors produce **bit-identical**
:class:`~repro.experiments.runner.ExperimentResult` rows; the executor is
purely a throughput knob.

When a store is supplied the parent process resolves (and persists) the
dataset and warmed analytical caches *before* dispatch, so worker
processes hit the on-disk artifacts instead of re-simulating datasets or
re-warming caches.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro.analytical import AnalyticalPredictionCache
from repro.core.evaluation import CellResult, evaluate_cell, merge_cell_results
from repro.core.features import PerformanceDataset
from repro.datasets.store import DatasetStore
from repro.experiments.plan import (
    ExperimentPlan,
    build_analytical,
    build_factory,
    compute_extras,
    expand_cells,
    experiment_plan,
)
from repro.experiments.pool import (
    AUTO_BATCHES_PER_WORKER,
    COST_MODEL,
    SharedDatasetRef,
    WorkerPool,
    resolve_batch_cells,
    shape_batches,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSettings,
    _resolve_store,
)
from repro.obs.tracing import TRACER, span_into

__all__ = ["EXECUTORS", "run_plan", "run_named_plan", "worker_state_stats"]

#: Valid values of the ``executor`` argument / ``--executor`` CLI flag.
EXECUTORS = ("serial", "thread", "process", "remote")


def _resolve_jobs(jobs: int) -> int:
    if jobs == -1:
        return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be -1 or >= 1, got {jobs}")
    return jobs


def _resolve_data(plan: ExperimentPlan, store: DatasetStore | None,
                  dataset: PerformanceDataset | None = None, *,
                  canonical: bool = False,
                  ) -> tuple[PerformanceDataset, dict[str, AnalyticalPredictionCache]]:
    """Dataset and warmed analytical caches for *plan*.

    With a *store* (and no explicit dataset override) both the dataset and
    the warmed caches are read from / written to disk, so the expensive
    work happens at most once per machine.  An explicit *dataset* override
    (used by tests and notebooks) bypasses the store entirely — its
    content has no registered fingerprint.  *canonical* marks a provided
    *dataset* as store-equivalent content (the shared-memory transport
    path: the bytes are the plan's registered dataset, just delivered
    without the npz read), so caches may still flow through the store.
    """
    use_store = store is not None and (dataset is None or canonical)
    if dataset is None:
        dataset = store.get(plan.dataset) if store is not None else plan.dataset.build()
    caches: dict[str, AnalyticalPredictionCache] = {}
    for key in plan.cache_keys():
        cache = None
        if use_store:
            cache = store.load_analytical_cache(key, plan.dataset,
                                                build_analytical(key),
                                                dataset.feature_names)
        if cache is None:
            cache = AnalyticalPredictionCache(build_analytical(key),
                                              dataset.feature_names)
            cache.warm(dataset.X)
            if use_store:
                store.save_analytical_cache(key, plan.dataset, cache)
        caches[key] = cache
    return dataset, caches


def _series_factories(plan: ExperimentPlan, dataset: PerformanceDataset,
                      caches: dict[str, AnalyticalPredictionCache]) -> dict:
    return {
        spec.label: build_factory(spec.factory, dataset,
                                  caches.get(spec.factory.analytical))
        for spec in plan.series
    }


# --------------------------------------------------------------------------- #
# Process-pool worker side
# --------------------------------------------------------------------------- #
#: Per-process memo of resolved plan state, so one worker handling several
#: cell batches of the same plan loads the dataset and caches only once.
#: Workers now outlive a single plan (see :class:`WorkerPool`), so the
#: memo is a bounded LRU: long experiment sequences evict their oldest
#: plan state instead of growing worker RSS without limit.
_WORKER_STATE: OrderedDict = OrderedDict()
#: Resolved plan states kept per worker.  One state holds a dataset view
#: plus warmed caches and factories — a handful covers every realistic
#: sequence (consecutive plans sharing datasets hit the memo), while a
#: hard cap bounds worker memory on arbitrarily long sequences.
_WORKER_STATE_LIMIT = 8
#: Evictions performed by this process (exposed via :func:`worker_state_stats`).
_WORKER_STATE_EVICTIONS = 0


def worker_state_stats() -> dict:
    """Size/limit/eviction counters of this process's plan-state memo.

    Call it in a *worker* (e.g. through :meth:`WorkerPool.probe`) to
    observe memo behaviour from outside; in the parent it reports the
    parent's own — normally empty — memo.
    """
    return {"size": len(_WORKER_STATE), "limit": _WORKER_STATE_LIMIT,
            "evictions": _WORKER_STATE_EVICTIONS}


def _worker_state_put(key, state) -> None:
    global _WORKER_STATE_EVICTIONS
    _WORKER_STATE[key] = state
    _WORKER_STATE.move_to_end(key)
    while len(_WORKER_STATE) > _WORKER_STATE_LIMIT:
        _WORKER_STATE.popitem(last=False)
        _WORKER_STATE_EVICTIONS += 1


def _evaluate_batch(plan: ExperimentPlan, cells: list, store_locator: str | None,
                    dataset: PerformanceDataset | None = None,
                    shared_ref: SharedDatasetRef | None = None) -> list[CellResult]:
    """Evaluate one batch of cells (runs inside a worker process).

    Module-level (and with picklable arguments) so the process pool can
    ship it.  *store_locator* is the parent store's shareable URL
    (``file://`` directory, ``http://`` object store); workers open
    their own :class:`DatasetStore` on it.  *shared_ref*, when given, is
    the parent's shared-memory dataset handle: the worker attaches a
    zero-copy read-only view instead of loading the npz artifact or
    unpickling shipped arrays (a canonical ref still reads analytical
    caches through the store; an override ref bypasses stores entirely,
    like a shipped override *dataset*).  The serial/thread paths
    evaluate cells directly in :func:`run_plan` against the
    parent-resolved state; divergence is impossible because every path
    reduces to the same :func:`~repro.core.evaluation.evaluate_cell`
    call per cell and the merge is plan-ordered.
    """
    canonical = shared_ref.canonical if shared_ref is not None else False
    if shared_ref is not None and not canonical:
        key = (plan, "override", shared_ref.digest)
    elif shared_ref is None and dataset is not None:
        # Override datasets have no registered fingerprint; key the memo by
        # content so a worker handling several batches warms caches once.
        digest = hashlib.sha256(dataset.X.tobytes() + dataset.y.tobytes()).hexdigest()
        key = (plan, "override", digest)
    else:
        # Canonical content: identical whether it arrives via the store
        # locator, shared memory, or a shipped copy of the built dataset.
        key = (plan, store_locator)
    state = _WORKER_STATE.get(key)
    if state is None:
        if shared_ref is not None:
            dataset = shared_ref.materialize()
        if dataset is not None:
            store = (DatasetStore(store_locator)
                     if canonical and store_locator is not None else None)
            resolved, caches = _resolve_data(plan, store, dataset,
                                             canonical=canonical)
        else:
            store = DatasetStore(store_locator) if store_locator is not None else None
            resolved, caches = _resolve_data(plan, store)
        state = (resolved, _series_factories(plan, resolved, caches))
        _worker_state_put(key, state)
    else:
        _WORKER_STATE.move_to_end(key)
    resolved, factories = state
    return [evaluate_cell(cell, factories[cell.factory_key], resolved)
            for cell in cells]


def _cell_attrs(cell) -> dict:
    """Span attributes identifying one cell (kept to its key fields only)."""
    return {"series": cell.series, "fraction": cell.fraction,
            "repeat": cell.repeat}


def _evaluate_batch_traced(plan: ExperimentPlan, cells: list,
                           store_locator: str | None,
                           dataset: PerformanceDataset | None = None,
                           shared_ref: SharedDatasetRef | None = None,
                           trace=None) -> tuple[list[CellResult], list]:
    """Traced twin of :func:`_evaluate_batch`: results plus finished spans.

    Dispatched instead of the plain function only when the parent runs
    under an active trace collection, so the untraced hot path stays
    byte-for-byte identical.  *trace* is the parent plan span's
    :class:`~repro.obs.tracing.SpanContext`; the batch and per-cell spans
    created here parent to it and travel back over the pool's pickle
    boundary as plain :class:`~repro.obs.tracing.Span` values.
    """
    spans: list = []
    with span_into(spans, "batch",
                   parent=trace,
                   attrs={"executor": "process", "pid": os.getpid(),
                          "cells": len(cells)}) as batch_span:
        results: list[CellResult] = []
        for cell in cells:
            with span_into(spans, "cell", parent=batch_span,
                           attrs=_cell_attrs(cell)):
                results.extend(
                    _evaluate_batch(plan, [cell], store_locator,
                                    dataset, shared_ref))
    return results, spans


# --------------------------------------------------------------------------- #
# Remote (worker-fleet) dispatch
# --------------------------------------------------------------------------- #
def _run_remote(plan: ExperimentPlan, cells: list, dataset: PerformanceDataset,
                caches: dict, store: DatasetStore | None, fleet,
                jobs: int, dataset_override: bool,
                batch_cells=None) -> list[CellResult]:
    """Dispatch cells to a TCP worker fleet (see :mod:`repro.distributed`).

    With an existing *fleet* coordinator the plan simply runs on it.  The
    convenience path spawns a throwaway coordinator plus *jobs* localhost
    workers; the workers share the parent's store (via its locator URL —
    warm-path loads, no bootstrap traffic) when a shareable one is
    configured.  *batch_cells* (``"auto"`` or an int) becomes the
    throwaway coordinator's lease ``batch_size``; an existing fleet
    already fixed its lease policy at construction, so combining the two
    is a usage error rather than a silent no-op.
    """
    from repro.distributed.coordinator import Coordinator

    if fleet is not None:
        if batch_cells is not None:
            raise ValueError(
                "batch_cells cannot be combined with an existing fleet; "
                "construct the Coordinator with batch_size=... instead")
        return fleet.execute(plan, cells, dataset, caches, store=store,
                             dataset_override=dataset_override)
    knobs = {} if batch_cells is None else {"batch_size": batch_cells}
    with Coordinator(**knobs) as coordinator:
        coordinator.spawn_local_workers(
            jobs, store_url=None if store is None else store.locator)
        return coordinator.execute(plan, cells, dataset, caches, store=store,
                                   dataset_override=dataset_override)


# --------------------------------------------------------------------------- #
# Process-pool (parent-side) dispatch
# --------------------------------------------------------------------------- #
def _run_process(plan: ExperimentPlan, cells: list, resolved: PerformanceDataset,
                 store_locator: str | None, *, dataset_override: bool,
                 pool: WorkerPool, batch_cells) -> list[CellResult]:
    """Dispatch cells to a (possibly long-lived) :class:`WorkerPool`.

    Three overhead attacks compose here: the pool may outlive this plan
    (workers keep their state memos), the batch shape is cost-balanced
    (LPT over the calibrated cost model) instead of a blind contiguous
    split, and the dataset travels through shared memory when available.
    Measured batch durations are fed back into the cost model, so later
    plans — and the fleet coordinator's adaptive leases — shape better.
    """
    costs = COST_MODEL.plan_costs(plan, cells, resolved.n_samples)
    units = COST_MODEL.plan_units(plan, cells, resolved.n_samples)
    if batch_cells is None or batch_cells == "auto":
        # Mild oversubscription: the pool queue absorbs cost-estimate
        # error dynamically without a dispatch round-trip per cell.
        n_batches = pool.jobs * AUTO_BATCHES_PER_WORKER
    else:
        n_batches = max(1, -(-len(cells) // batch_cells))
    batches = shape_batches(cells, costs, n_batches)

    shared_ref = pool.share_dataset(resolved, canonical=not dataset_override)
    if shared_ref is not None:
        shipped = None  # zero-copy: only the handle crosses the boundary
    else:
        # Shared memory unavailable: fall back to the store bootstrap
        # (when a shareable locator exists) or in-band pickling.
        shipped = None if store_locator is not None else resolved

    # Tracing on: dispatch the traced twin, which ships finished spans
    # back with the results.  Off (the common case): the dispatched
    # callable and its argument tuples are identical to the untraced
    # build, so the pool's hot path pays nothing.
    trace = TRACER.current_context() if TRACER.enabled else None
    if trace is None:
        timed = pool.run_batches(
            _evaluate_batch,
            [(plan, batch, store_locator, shipped, shared_ref)
             for batch in batches])
    else:
        traced = pool.run_batches(
            _evaluate_batch_traced,
            [(plan, batch, store_locator, shipped, shared_ref, trace)
             for batch in batches])
        timed = []
        for seconds, (batch_results, spans) in traced:
            TRACER.record(spans)
            timed.append((seconds, batch_results))
    for batch, (seconds, _) in zip(batches, timed, strict=True):
        by_family: dict[str, float] = {}
        for cell in batch:
            family, cell_units = units[cell.key]
            by_family[family] = by_family.get(family, 0.0) + cell_units
        COST_MODEL.observe(by_family, seconds)
    return [result for _, batch_results in timed for result in batch_results]


# --------------------------------------------------------------------------- #
# The scheduler proper
# --------------------------------------------------------------------------- #
def run_plan(plan: ExperimentPlan, *, executor: str = "serial", jobs: int = 1,
             store: DatasetStore | None = None,
             dataset: PerformanceDataset | None = None,
             fleet=None, pool: WorkerPool | None = None,
             batch_cells=None, publish_models: bool = False) -> ExperimentResult:
    """Execute *plan* and merge the cell results into an :class:`ExperimentResult`.

    Parameters
    ----------
    plan:
        The experiment plan to execute.
    executor:
        One of :data:`EXECUTORS`.  All four produce bit-identical rows.
    jobs:
        Worker count for the thread/process executors (``-1`` = CPU
        count); for ``"remote"`` without a *fleet*, the size of the
        spawned localhost fleet.
    store:
        Optional persistent :class:`DatasetStore`: datasets and warmed
        analytical caches are loaded from (and saved to) disk, shared
        across experiments, invocations and worker processes.
    dataset:
        Explicit dataset override (tests/notebooks); bypasses the store.
    fleet:
        Remote executor only: an existing
        :class:`~repro.distributed.coordinator.Coordinator` whose workers
        execute the plan (the coordinator outlives the call, so one fleet
        serves a whole sequence of experiments).  ``None`` spins up a
        local fleet of ``jobs`` workers for just this plan.
    pool:
        Process executor only: an existing
        :class:`~repro.experiments.pool.WorkerPool` whose warm workers
        execute the plan (the pool outlives the call — workers keep
        their plan-state memos, so one pool serves a whole sequence of
        experiments; see ``run_all`` and the CLI).  ``None`` spins up a
        pool of ``jobs`` workers for just this plan.
    batch_cells:
        Cell-fusion target for the process executor and the spawned
        remote fleet: ``None``/``"auto"`` lets the cost model shape
        cost-balanced batches (process) or adaptive leases (remote); an
        integer ``N`` forces ~``N`` cells per batch/lease.  Batch shape
        never affects results.
    publish_models:
        After a successful run, fit one canonical model per servable
        series on the **full** dataset and publish it into the *store*
        under ``models/<series>-<plan_fp>.npz`` for the serving tier
        (:mod:`repro.serving`); the publish outcome lands in
        ``result.extra["published_models"]``.  Requires a *store* (the
        artifacts need somewhere to live) and no *dataset* override
        (published models must be reproducible from the plan alone).
    """
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
    jobs = _resolve_jobs(jobs)
    batch_cells = resolve_batch_cells(batch_cells)
    if pool is not None and executor != "process":
        raise ValueError(
            f"pool requires the process executor, got executor={executor!r}")
    if publish_models and store is None:
        raise ValueError("publish_models requires a store to publish into")
    if publish_models and dataset is not None:
        raise ValueError(
            "publish_models is incompatible with a dataset override: published "
            "models must be reproducible from the plan's registered dataset")
    # Dataset resolution (simulate or store read) and analytical warm-up
    # run before the plan span, as its sibling under the experiment.
    with TRACER.span("dataset", attrs={"dataset": plan.dataset.name}) as data_span:
        hits = store.hits if store is not None else None
        resolved, caches = _resolve_data(plan, store, dataset)
        if data_span is not None:
            data_span.attrs["store_hit"] = hits is not None and store.hits > hits
    cells = expand_cells(plan)
    used_pool = False

    # Under an active trace collection (``TRACER.collect()`` / the CLI's
    # ``--trace``) the whole dispatch+merge runs inside a plan span; every
    # executor parents its batch and cell spans to it (over the wire for
    # remote, over the pool's pickle boundary for process).  With tracing
    # off — the default — every ``TRACER.span`` below yields None after a
    # single attribute check, which is the basis of the scheduler's <2%
    # overhead guarantee (see benchmarks/test_bench_perf.py).
    with TRACER.span("plan", attrs={"plan": plan.experiment_id,
                                    "executor": executor,
                                    "cells": len(cells)}):
        if executor == "remote":
            results = _run_remote(plan, cells, resolved, caches,
                                  store if dataset is None else None, fleet, jobs,
                                  dataset_override=dataset is not None,
                                  batch_cells=batch_cells)
        elif (executor == "serial" or len(cells) <= 1
              or (jobs == 1 and not (executor == "process" and pool is not None))):
            factories = _series_factories(plan, resolved, caches)
            with TRACER.span("batch", attrs={"executor": "serial",
                                             "cells": len(cells)}) as batch_span:
                results = []
                for cell in cells:
                    with TRACER.span("cell", parent=batch_span,
                                     attrs=_cell_attrs(cell)):
                        results.append(evaluate_cell(
                            cell, factories[cell.factory_key], resolved))
        elif executor == "thread":
            factories = _series_factories(plan, resolved, caches)
            with TRACER.span("batch", attrs={"executor": "thread", "jobs": jobs,
                                             "cells": len(cells)}) as batch_span:
                def _eval_one(cell):
                    # Pool threads don't inherit the contextvar; parent
                    # each cell span to the batch explicitly.
                    with TRACER.span("cell", parent=batch_span,
                                     attrs=_cell_attrs(cell)):
                        return evaluate_cell(
                            cell, factories[cell.factory_key], resolved)
                with ThreadPoolExecutor(max_workers=jobs) as thread_pool:
                    results = list(thread_pool.map(_eval_one, cells))
        else:  # process
            store_locator = store.locator if (store is not None and dataset is None) else None
            own_pool = pool is None
            if own_pool:
                pool = WorkerPool(jobs)
            try:
                results = _run_process(plan, cells, resolved, store_locator,
                                       dataset_override=dataset is not None,
                                       pool=pool, batch_cells=batch_cells)
                used_pool = True
            finally:
                if own_pool:
                    pool.close()

        merge_start = time.perf_counter()
        by_series: dict[str, list[CellResult]] = {}
        for result in results:
            by_series.setdefault(result.series, []).append(result)
        curves = {}
        for spec in plan.series:
            series_cells = [c for c in cells if c.series == spec.label]
            curves[spec.label] = merge_cell_results(
                series_cells, by_series.get(spec.label, []), label=spec.label)
        if used_pool:
            pool.record_merge(time.perf_counter() - merge_start, len(cells))

    extra = compute_extras(plan, resolved, caches)
    if publish_models:
        from repro.serving.model_io import publish_plan_models

        extra["published_models"] = publish_plan_models(
            plan, resolved, caches, store)

    return ExperimentResult(
        experiment_id=plan.experiment_id,
        description=plan.description,
        dataset_name=resolved.name,
        curves=curves,
        extra=extra,
    )


def run_named_plan(name: str, settings: ExperimentSettings | None = None,
                   dataset: PerformanceDataset | None = None, *,
                   executor: str = "serial", jobs: int = 1,
                   store=None, fleet=None, pool=None,
                   batch_cells=None, publish_models: bool = False) -> ExperimentResult:
    """Resolve the plan of experiment *name* and execute it.

    The shared backend of the thin per-figure / per-ablation wrappers
    (``store`` may be a :class:`DatasetStore` or a directory path;
    ``fleet`` an existing remote-executor coordinator; ``pool`` an
    existing process-executor :class:`WorkerPool`; ``batch_cells`` the
    cell-fusion target, ``"auto"`` or an int; ``publish_models`` fits
    and publishes serving-tier models into the store after the run).
    """
    plan = experiment_plan(name, settings or ExperimentSettings())
    if plan is None:
        raise KeyError(f"experiment {name!r} has no plan (runs opaquely)")
    return run_plan(plan, dataset=dataset, executor=executor, jobs=jobs,
                    store=_resolve_store(store), fleet=fleet, pool=pool,
                    batch_cells=batch_cells, publish_models=publish_models)
