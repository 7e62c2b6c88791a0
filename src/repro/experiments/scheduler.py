"""Pluggable execution of experiment plans.

:func:`run_plan` takes an :class:`~repro.experiments.plan.ExperimentPlan`,
expands it into :class:`~repro.core.evaluation.EvalCell` tasks and
dispatches them through one of three executors:

* ``"serial"`` — the cells run in plan order in the calling process;
* ``"process"`` — a persistent :class:`~repro.experiments.pool.WorkerPool`
  of worker processes.  Cells are fused into ``jobs x 2`` cost-balanced
  batches by a greedy LPT shaper over the plan's pure per-cell costs
  (:func:`~repro.experiments.pool.plan_costs`).  The parent packs the
  dataset and warmed analytical caches it resolved into one small
  :class:`~repro.experiments.pool.PlanState` that rides in every batch's
  arguments; workers rebuild the dataset, caches and factories from it
  once per plan and content, and keep them in a bounded per-process memo
  across batches *and plans*: pass an external pool (see
  ``run_all``/the CLI, which create one per experiment sequence) and
  consecutive plans skip worker spawn entirely.
* ``"remote"`` — a TCP worker fleet (:mod:`repro.distributed`): cells are
  leased in fixed 4-cell batches to :mod:`repro.distributed.worker`
  processes on any number of hosts, with heartbeat/requeue fault
  tolerance and straggler speculation.  The same
  :class:`~repro.experiments.pool.PlanState` rides in the plan
  assignment, and fleet workers keep the same bounded memo.  Pass an existing
  :class:`~repro.distributed.coordinator.Coordinator` as ``fleet`` (the
  CLI's ``--bind``/``--workers`` mode); without one a throwaway
  coordinator plus ``jobs`` localhost workers is spun up per plan.

Because seeds are derived at planning time and the merge is performed in
plan order, all three executors produce **bit-identical**
:class:`~repro.experiments.runner.ExperimentResult` rows under any batch
shape; the executor is purely a throughput knob.

The parent process always resolves the dataset and warms the analytical
caches *before* dispatch — through the store, when one is supplied, so
the expensive work happens at most once per machine.
"""

from __future__ import annotations

import os
from collections import OrderedDict

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
    BATCHES_PER_WORKER,
    PlanState,
    WorkerPool,
    _resolve_jobs,
    plan_costs,
    shape_batches,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSettings,
    _resolve_store,
)
from repro.obs.tracing import TRACER, span_into

__all__ = ["EXECUTORS", "PlanMemo", "run_plan", "run_named_plan", "worker_state_stats"]

#: Valid values of the ``executor`` argument / ``--executor`` CLI flag.
EXECUTORS = ("serial", "process", "remote")


def _resolve_data(plan: ExperimentPlan, store: DatasetStore | None,
                  dataset: PerformanceDataset | None = None,
                  ) -> tuple[PerformanceDataset, dict[str, AnalyticalPredictionCache]]:
    """Dataset and warmed analytical caches for *plan*.

    With a *store* (and no explicit dataset override) both the dataset and
    the warmed caches are read from / written to disk, so the expensive
    work happens at most once per machine.  An explicit *dataset* override
    (used by tests and notebooks) bypasses the store entirely — its
    content has no registered fingerprint.
    """
    use_store = store is not None and dataset is None
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
# Worker side (process pool and fleet)
# --------------------------------------------------------------------------- #
#: Rebuilt plan states kept per worker.  One state holds a dataset plus
#: warmed caches and factories — a handful covers every realistic
#: sequence (consecutive plans sharing datasets hit the memo), while a
#: hard cap bounds worker memory on arbitrarily long sequences.
_WORKER_STATE_LIMIT = 8


class PlanMemo:
    """Bounded LRU of the plan state a worker rebuilt from :class:`PlanState`.

    Maps ``(plan, state.digest)`` to the dataset and series factories,
    so a worker handling several cell batches of one plan rebuilds them
    once.  Workers outlive a single plan (a :class:`WorkerPool`, a fleet
    connection), so at most :data:`_WORKER_STATE_LIMIT` entries are kept
    and the least recently used is evicted.  Each memo has one user: a
    pool worker process runs one batch at a time, and every fleet worker
    owns its own memo, so fleet workers sharing a process share nothing.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def resolve(self, plan: ExperimentPlan, state: PlanState) -> tuple:
        """``(dataset, factories)`` for *plan* on *state*, rebuilt on a miss."""
        key = (plan, state.digest)
        entry = self._entries.get(key)
        if entry is None:
            dataset, caches = state.unpack()
            entry = (dataset, _series_factories(plan, dataset, caches))
            self._entries[key] = entry
            while len(self._entries) > _WORKER_STATE_LIMIT:
                self._entries.popitem(last=False)
                self.evictions += 1
        else:
            self._entries.move_to_end(key)
        return entry


#: This process's memo when it is a pool worker.
_WORKER_STATE = PlanMemo()


def worker_state_stats() -> dict:
    """Size/limit/eviction counters of this process's plan-state memo.

    Call it in a *worker* (e.g. through :meth:`WorkerPool.probe`) to
    observe memo behaviour from outside; in the parent it reports the
    parent's own — normally empty — memo.
    """
    return {"size": len(_WORKER_STATE), "limit": _WORKER_STATE_LIMIT,
            "evictions": _WORKER_STATE.evictions}


def _cell_attrs(cell) -> dict:
    """Span attributes identifying one cell (kept to its key fields only)."""
    return {"series": cell.series, "fraction": cell.fraction,
            "repeat": cell.repeat}


def _evaluate_batch(plan: ExperimentPlan, cells: list, state: PlanState,
                    trace=None) -> tuple[list[CellResult], list]:
    """Evaluate one batch of cells in a pool worker: ``(results, spans)``.

    Module-level (and with picklable arguments) so the process pool can
    ship it.  *state* carries the parent-resolved dataset and warmed
    caches; the worker rebuilds them (and the series factories) once per
    ``(plan, state.digest)`` and memoizes the result.  *trace* is the
    parent plan span's :class:`~repro.obs.tracing.SpanContext` when the
    parent runs under an active trace collection: the batch and per-cell
    spans created here parent to it and travel back over the pool's
    pickle boundary as plain :class:`~repro.obs.tracing.Span` values.
    Without it no span objects are created at all.  Every executor
    reduces to the same :func:`~repro.core.evaluation.evaluate_cell`
    call per cell and the merge is plan-ordered, so rows cannot diverge.
    """
    dataset, factories = _WORKER_STATE.resolve(plan, state)
    if trace is None:
        return [evaluate_cell(cell, factories[cell.factory_key], dataset)
                for cell in cells], []
    spans: list = []
    with span_into(spans, "batch", parent=trace,
                   attrs={"executor": "process", "pid": os.getpid(),
                          "cells": len(cells)}) as batch_span:
        results: list[CellResult] = []
        for cell in cells:
            with span_into(spans, "cell", parent=batch_span,
                           attrs=_cell_attrs(cell)):
                results.append(evaluate_cell(
                    cell, factories[cell.factory_key], dataset))
    return results, spans


# --------------------------------------------------------------------------- #
# Remote (worker-fleet) dispatch
# --------------------------------------------------------------------------- #
def _run_remote(plan: ExperimentPlan, cells: list, state: PlanState, fleet,
                jobs: int) -> list[CellResult]:
    """Dispatch cells to a TCP worker fleet (see :mod:`repro.distributed`).

    With an existing *fleet* coordinator the plan simply runs on it.  The
    convenience path spawns a throwaway coordinator plus *jobs* localhost
    workers.  Either way the workers receive *state* in the plan
    assignment and open no store.
    """
    from repro.distributed.coordinator import Coordinator

    if fleet is not None:
        return fleet.execute(plan, cells, state)
    with Coordinator() as coordinator:
        coordinator.spawn_local_workers(jobs)
        return coordinator.execute(plan, cells, state)


# --------------------------------------------------------------------------- #
# Process-pool (parent-side) dispatch
# --------------------------------------------------------------------------- #
def _run_process(plan: ExperimentPlan, cells: list, state: PlanState,
                 pool: WorkerPool) -> list[CellResult]:
    """Dispatch cells to a (possibly long-lived) :class:`WorkerPool`.

    The pool may outlive this plan (workers keep their state memos), the
    cells go out in ``jobs x 2`` batches balanced by LPT over the plan's
    per-cell costs, and the plan's state, packed once, is shipped by
    value.  The shapes depend only on the plan and ``pool.jobs``.
    """
    batches = shape_batches(cells, plan_costs(plan, cells, state.n_rows),
                            pool.jobs * BATCHES_PER_WORKER)
    trace = TRACER.current_context() if TRACER.enabled else None
    results: list[CellResult] = []
    for batch_results, spans in pool.run_batches(
            _evaluate_batch, [(plan, batch, state, trace) for batch in batches]):
        TRACER.record(spans)
        results.extend(batch_results)
    return results


def _merge_curves(plan: ExperimentPlan, cells: list,
                  results: list[CellResult]) -> dict:
    """Merge cell results, in any order, into the plan's learning curves."""
    by_series: dict[str, list[CellResult]] = {}
    for result in results:
        by_series.setdefault(result.series, []).append(result)
    return {spec.label: merge_cell_results(
                [c for c in cells if c.series == spec.label],
                by_series.get(spec.label, []), label=spec.label)
            for spec in plan.series}


# --------------------------------------------------------------------------- #
# The scheduler proper
# --------------------------------------------------------------------------- #
def run_plan(plan: ExperimentPlan, *, executor: str = "serial", jobs: int = 1,
             store: DatasetStore | None = None,
             dataset: PerformanceDataset | None = None,
             fleet=None, pool: WorkerPool | None = None,
             publish_models: bool = False) -> ExperimentResult:
    """Execute *plan* and merge the cell results into an :class:`ExperimentResult`.

    Parameters
    ----------
    plan:
        The experiment plan to execute.
    executor:
        One of :data:`EXECUTORS`.  All three produce bit-identical rows.
    jobs:
        Worker count for the process executor (``-1`` = CPU count); for
        ``"remote"`` without a *fleet*, the size of the spawned
        localhost fleet.
    store:
        Optional persistent :class:`DatasetStore`: datasets and warmed
        analytical caches are loaded from (and saved to) disk by this
        process, shared across experiments and invocations.  Pool and
        fleet workers receive the resolved state by value and never open
        the store.
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
        if executor == "serial" or (executor == "process" and (
                len(cells) <= 1 or (jobs == 1 and pool is None))):
            factories = _series_factories(plan, resolved, caches)
            with TRACER.span("batch", attrs={"executor": "serial",
                                             "cells": len(cells)}) as batch_span:
                results = []
                for cell in cells:
                    with TRACER.span("cell", parent=batch_span,
                                     attrs=_cell_attrs(cell)):
                        results.append(evaluate_cell(
                            cell, factories[cell.factory_key], resolved))
        else:
            # Both parallel executors ship the same packed state by value.
            state = PlanState.pack(resolved, caches)
            if executor == "remote":
                results = _run_remote(plan, cells, state, fleet, jobs)
            else:
                own_pool = pool is None
                if own_pool:
                    pool = WorkerPool(jobs)
                try:
                    results = _run_process(plan, cells, state, pool)
                finally:
                    if own_pool:
                        pool.close()
        curves = _merge_curves(plan, cells, results)

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
                   publish_models: bool = False) -> ExperimentResult:
    """Resolve the plan of experiment *name* and execute it.

    The shared backend of the thin per-figure / per-ablation wrappers
    (``store`` may be a :class:`DatasetStore` or a directory path;
    ``fleet`` an existing remote-executor coordinator; ``pool`` an
    existing process-executor :class:`WorkerPool`; ``publish_models``
    fits and publishes serving-tier models into the store after the run).
    """
    plan = experiment_plan(name, settings or ExperimentSettings())
    if plan is None:
        raise KeyError(f"experiment {name!r} has no plan (runs opaquely)")
    return run_plan(plan, dataset=dataset, executor=executor, jobs=jobs,
                    store=_resolve_store(store), fleet=fleet, pool=pool,
                    publish_models=publish_models)
