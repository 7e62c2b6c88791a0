"""Execution of experiment plans.

:func:`run_plan` takes an :class:`~repro.experiments.plan.ExperimentPlan`,
expands it into :class:`~repro.core.evaluation.EvalCell` tasks and runs
them where its ``workers`` argument says: ``None`` in plan order in the
calling process; a :class:`~repro.experiments.pool.WorkerPool` in
``jobs x 2`` batches shaped by greedy LPT over the plan's pure per-cell
costs (:func:`~repro.experiments.pool.plan_costs`); a
:class:`~repro.distributed.coordinator.Coordinator` in fixed 4-cell
leases to :mod:`repro.distributed.worker` processes on any number of
hosts, with heartbeat/requeue fault tolerance and straggler speculation.
The caller owns the pool or fleet, so one serves a whole sequence of
plans (:func:`~repro.experiments.runner.open_workers` opens throwaway
ones).  Both receive one small :class:`~repro.experiments.pool.PlanState`
holding the dataset and warmed analytical caches the parent resolved;
their workers rebuild from it once per plan and content, in a bounded
:class:`PlanMemo` kept across batches *and plans*.  Wherever they run,
cells go through one loop, :func:`evaluate_cells`.

Because seeds are derived at planning time and the merge is performed in
plan order, every choice of ``workers`` produces **bit-identical**
:class:`~repro.experiments.runner.ExperimentResult` rows under any batch
shape; it only decides where cells run.

The parent process always resolves the dataset and warms the analytical
caches *before* dispatch — through the store, when one is supplied, so
the expensive work happens at most once per machine.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import nullcontext

from repro.analytical import AnalyticalPredictionCache
from repro.core.evaluation import CellResult, evaluate_cell, merge_cell_results
from repro.core.features import PerformanceDataset
from repro.datasets.store import DatasetSpec, DatasetStore
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
    plan_costs,
    shape_batches,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSettings,
    _resolve_store,
)
from repro.obs.tracing import TRACER, SpanContext, span_into

__all__ = ["PlanMemo", "evaluate_cells", "run_plan", "run_named_plan",
           "warmed_cache", "worker_state_stats"]


def warmed_cache(key: str, spec: DatasetSpec, dataset: PerformanceDataset,
                 store: DatasetStore | None = None) -> AnalyticalPredictionCache:
    """The cache of analytical model *key* over every row of *dataset*.

    Read from *store* when it holds one for ``(key, spec)``; otherwise
    warmed here, and saved into *store* when there is one.
    """
    cache = None
    if store is not None:
        cache = store.load_analytical_cache(key, spec, build_analytical(key),
                                            dataset.feature_names)
    if cache is None:
        cache = AnalyticalPredictionCache(build_analytical(key), dataset.feature_names)
        cache.warm(dataset.X)
        if store is not None:
            store.save_analytical_cache(key, spec, cache)
    return cache


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
    if dataset is not None:
        store = None
    elif store is not None:
        dataset = store.get(plan.dataset)
    else:
        dataset = plan.dataset.build()
    return dataset, {key: warmed_cache(key, plan.dataset, dataset, store)
                     for key in plan.cache_keys()}


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


def evaluate_cells(cells, factories: dict, dataset: PerformanceDataset,
                   trace: SpanContext | None = None, *, attrs: dict,
                   cell_attrs: dict | None = None) -> tuple[list[CellResult], list]:
    """Evaluate *cells* in order: ``(results, spans)``.

    The one cell loop, calling :func:`evaluate_cell` per cell, of serial
    runs, pool workers and fleet workers.  Under a *trace* parent it
    builds a ``batch`` span (*attrs* plus the cell count) holding a
    ``cell`` span per cell (its key fields plus *cell_attrs*) for the
    caller to record or ship; without one it builds no spans.
    """
    spans: list = []
    results: list[CellResult] = []
    with (nullcontext() if trace is None else
          span_into(spans, "batch", parent=trace,
                    attrs={**attrs, "cells": len(cells)})) as batch:
        for cell in cells:
            with (nullcontext() if batch is None else
                  span_into(spans, "cell", parent=batch,
                            attrs={"series": cell.series, "fraction": cell.fraction,
                                   "repeat": cell.repeat, **(cell_attrs or {})})):
                results.append(evaluate_cell(cell, factories[cell.factory_key], dataset))
    return results, spans


def _evaluate_batch(plan: ExperimentPlan, cells: list, state: PlanState,
                    trace=None) -> tuple[list[CellResult], list]:
    """Evaluate one batch of cells in a pool worker: ``(results, spans)``.

    Module-level (and with picklable arguments) so the process pool can
    ship it.  *state* carries the parent-resolved dataset and warmed
    caches; the worker rebuilds them (and the series factories) once per
    ``(plan, state.digest)`` and memoizes the result.
    """
    dataset, factories = _WORKER_STATE.resolve(plan, state)
    return evaluate_cells(cells, factories, dataset, trace,
                          attrs={"executor": "process", "pid": os.getpid()})


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
def run_plan(plan: ExperimentPlan, *, workers=None,
             store: DatasetStore | None = None,
             dataset: PerformanceDataset | None = None,
             publish_models: bool = False) -> ExperimentResult:
    """Execute *plan* and merge the cell results into an :class:`ExperimentResult`.

    Parameters
    ----------
    plan:
        The experiment plan to execute.
    workers:
        Where the cells run: ``None`` in this process, a
        :class:`~repro.experiments.pool.WorkerPool` or a
        :class:`~repro.distributed.coordinator.Coordinator`, which the
        caller owns (see :func:`~repro.experiments.runner.open_workers`).
        All three produce bit-identical rows.
    store:
        Optional persistent :class:`DatasetStore`: datasets and warmed
        analytical caches are loaded from (and saved to) disk by this
        process, shared across experiments and invocations.  Pool and
        fleet workers receive the resolved state by value and never open
        the store.
    dataset:
        Explicit dataset override (tests/notebooks); bypasses the store.
    publish_models:
        After a successful run, fit one canonical model per servable
        series on the **full** dataset and publish it into the *store*
        under ``models/<series>-<plan_fp>.npz`` for the serving tier
        (:mod:`repro.serving`); the publish outcome lands in
        ``result.extra["published_models"]``.  Requires a *store* (the
        artifacts need somewhere to live) and no *dataset* override
        (published models must be reproducible from the plan alone).
    """
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
    # A WorkerPool (or a stand-in) runs batches; a Coordinator executes plans.
    executor = ("serial" if workers is None
                else "process" if hasattr(workers, "run_batches") else "remote")

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
        trace = TRACER.current_context() if TRACER.enabled else None
        if workers is None:
            results, spans = evaluate_cells(
                cells, _series_factories(plan, resolved, caches), resolved, trace,
                attrs={"executor": "serial"})
            TRACER.record(spans)
        else:
            # Both parallel executors ship the same packed state by value.
            state = PlanState.pack(resolved, caches)
            if executor == "remote":
                results = workers.execute(plan, cells, state)
            else:
                batches = shape_batches(cells, plan_costs(plan, cells, state.n_rows),
                                        workers.jobs * BATCHES_PER_WORKER)
                results = []
                for batch_results, spans in workers.run_batches(
                        _evaluate_batch, [(plan, batch, state, trace) for batch in batches]):
                    TRACER.record(spans)
                    results.extend(batch_results)
        curves = _merge_curves(plan, cells, results)

    # The post-merge statistics and the publishing run here whatever the
    # executor, each in its own span next to the dataset and plan spans.
    with TRACER.span("extras"):
        extra = compute_extras(plan, resolved, caches)
    if publish_models:
        from repro.serving.model_io import publish_plan_models

        with TRACER.span("publish"):
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
                   workers=None, store=None,
                   publish_models: bool = False) -> ExperimentResult:
    """Resolve the plan of experiment *name* and execute it.

    The shared backend of the per-figure / per-ablation functions
    (``store`` may be a :class:`DatasetStore` or a directory path;
    ``workers`` and ``publish_models`` are :func:`run_plan`'s).
    """
    plan = experiment_plan(name, settings or ExperimentSettings())
    if plan is None:
        raise KeyError(f"experiment {name!r} has no plan (runs opaquely)")
    return run_plan(plan, workers=workers, store=_resolve_store(store),
                    dataset=dataset, publish_models=publish_models)
