"""Tests for the warm worker pool, batch shaping and plan-state transport.

The guarantees under test:

* batch shape is a pure throughput knob: any partition of a plan's
  cells, in any order, merges to **bit-identical** ``ExperimentResult``
  rows;
* a plan's batch shapes are a pure function of the plan and the pool
  size: they do not change with what ran earlier in the process;
* a :class:`WorkerPool` outlives a single plan: two consecutive plans
  (and two consecutive invocations of the same plan) on one pool reuse
  the same worker processes (``spawn_count`` stays flat) and their
  per-plan memos;
* the per-worker plan memo is a bounded LRU whose evictions are
  observable (the PR-7 fix for the unbounded ``_WORKER_STATE`` global);
* a :class:`PlanState` round-trips the dataset and every warmed cache
  bit for bit, and pool workers built from it open no store, warm no
  cache and miss no cache row.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.store import DatasetStore
from repro.experiments import (
    ExperimentSettings,
    expand_cells,
    experiment_plan,
    run_all,
    run_experiment,
)
from repro.experiments.pool import (
    BATCHES_PER_WORKER,
    PlanState,
    WorkerPool,
    plan_costs,
    shape_batches,
)
from repro.experiments.scheduler import (
    _evaluate_batch,
    _merge_curves,
    resolve_data,
    run_plan,
    worker_state_stats,
)
from repro.parallel.threadpool import weighted_chunk_indices

TINY = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120, random_state=0)


def _rows(result):
    return (result.rows(), result.extra)


class TestWeightedChunks:
    def test_lpt_isolates_the_giant_cell(self):
        """One giant + many tiny: the giant gets a chunk to itself and the
        tiny cells are fused around it, so the makespan is the giant."""
        weights = [100.0] + [1.0] * 12
        chunks = weighted_chunk_indices(weights, 4)
        assert [0] in chunks
        loads = [sum(weights[i] for i in chunk) for chunk in chunks]
        assert max(loads) == 100.0
        tiny_loads = [load for load in loads if load < 100.0]
        assert max(tiny_loads) - min(tiny_loads) <= 1.0  # balanced remainder

    def test_partition_is_complete_and_disjoint(self):
        weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        chunks = weighted_chunk_indices(weights, 3)
        flat = [i for chunk in chunks for i in chunk]
        assert sorted(flat) == list(range(len(weights)))

    def test_chunks_preserve_plan_order(self):
        chunks = weighted_chunk_indices([5.0, 1.0, 5.0, 1.0, 5.0, 1.0], 2)
        for chunk in chunks:
            assert chunk == sorted(chunk)

    def test_deterministic_tie_breaking(self):
        """Equal weights and equal loads resolve by index, so the shape is
        a pure function of the cost vector."""
        weights = [1.0] * 8
        first = weighted_chunk_indices(weights, 3)
        assert first == weighted_chunk_indices(weights, 3)
        # Round-robin by index under uniform weights.
        assert first == [[0, 3, 6], [1, 4, 7], [2, 5]]

    def test_beats_contiguous_split_on_skew(self):
        """The motivating case: a descending cost vector (big fractions
        first) where the naive contiguous split piles the expensive cells
        into one chunk."""
        from repro.parallel.threadpool import chunk_indices

        weights = [8.0, 8.0, 8.0, 8.0, 1.0, 1.0, 1.0, 1.0]
        lpt = weighted_chunk_indices(weights, 4)
        naive = chunk_indices(len(weights), 4)
        makespan = max(sum(weights[i] for i in c) for c in lpt)
        naive_makespan = max(sum(weights[i] for i in c) for c in naive)
        assert makespan == 9.0 < naive_makespan == 16.0

    def test_more_chunks_than_items(self):
        chunks = weighted_chunk_indices([2.0, 1.0], 5)
        assert chunks == [[0], [1]]  # no empty chunks emitted

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_chunk_indices([1.0], 0)
        assert weighted_chunk_indices([], 3) == []


class _RecordingPool:
    """A two-worker stand-in for :class:`WorkerPool` that runs batches
    in-process and records each plan's batch shapes (cell keys)."""

    jobs = 2

    def __init__(self) -> None:
        self.shapes: list = []

    def run_batches(self, fn, batch_args):
        self.shapes.append([[cell.key for cell in args[1]] for args in batch_args])
        return [fn(*args) for args in batch_args]


class TestCostModel:
    def test_family_weights_separate_estimators(self):
        """A random forest cell (split search) must cost more units than
        an extra-trees cell (random thresholds) at the same fraction."""
        plan = experiment_plan("ablation_ml_backend", TINY)
        cells = [cell for cell in expand_cells(plan)
                 if cell.fraction == plan.series[0].fractions[0]]
        costs = plan_costs(plan, cells, n_rows=120)
        units = {cell.series: costs[cell.key] for cell in cells}
        assert units["hybrid_random_forest"] > units["hybrid_extra_trees"]
        assert units["hybrid_knn"] < units["hybrid_extra_trees"]

    def test_plan_costs_floor_and_positivity(self):
        plan = experiment_plan("figure5", TINY)
        cells = expand_cells(plan)
        costs = plan_costs(plan, cells, n_rows=120)
        assert set(costs) == {cell.key for cell in cells}
        assert all(cost > 0.0 for cost in costs.values())

    def test_batch_shapes_do_not_depend_on_history(self):
        """The same plan gets the same batches before and after other
        plans ran in the process: shapes depend on the plan and ``jobs``
        alone."""
        pool = _RecordingPool()
        fmm = experiment_plan("figure3_fmm", TINY)
        run_plan(fmm, workers=pool)
        for name in ("figure5", "ablation_ml_backend"):
            run_plan(experiment_plan(name, TINY), workers=pool)
        run_plan(fmm, workers=pool)
        assert len(pool.shapes[0]) == pool.jobs * BATCHES_PER_WORKER
        assert pool.shapes[-1] == pool.shapes[0]


class TestShapeBatches:
    def test_partition_matches_cells(self):
        plan = experiment_plan("figure5", TINY)
        cells = expand_cells(plan)
        costs = plan_costs(plan, cells, n_rows=120)
        batches = shape_batches(cells, costs, 4)
        flat = [cell.key for batch in batches for cell in batch]
        assert sorted(flat) == sorted(cell.key for cell in cells)
        # Each batch keeps its cells in plan order.
        order = {cell.key: i for i, cell in enumerate(cells)}
        for batch in batches:
            indices = [order[cell.key] for cell in batch]
            assert indices == sorted(indices)

    def test_unknown_costs_count_as_free(self):
        plan = experiment_plan("figure5", TINY)
        cells = expand_cells(plan)
        batches = shape_batches(cells, {}, 3)
        flat = [cell.key for batch in batches for cell in batch]
        assert sorted(flat) == sorted(cell.key for cell in cells)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_partition_merges_to_serial_rows(self, data):
        """Property: cut a plan's cells into any batches, shuffle the
        cells and the batches, evaluate each batch with the pool's batch
        function and merge: the curves are the serial ones, bit for bit."""
        plan, cells, state, serial = _figure5()
        order = data.draw(st.permutations(range(len(cells))))
        labels = data.draw(st.lists(st.integers(0, len(cells) - 1),
                                    min_size=len(cells), max_size=len(cells)))
        batch_ids = data.draw(st.permutations(sorted(set(labels))))
        batches = [[cells[i] for i in order if labels[i] == batch_id]
                   for batch_id in batch_ids]
        results = [result for batch in batches
                   for result in _evaluate_batch(plan, batch, state)[0]]
        merged = dataclasses.replace(
            serial, curves=_merge_curves(plan, cells, results))
        assert merged.rows() == serial.rows()


@functools.lru_cache(maxsize=1)
def _figure5():
    """Figure 5's plan, cells, packed state and serial result (computed once)."""
    plan = experiment_plan("figure5", TINY)
    state = PlanState.pack(*resolve_data(plan.dataset, plan.cache_keys()))
    return plan, expand_cells(plan), state, run_plan(plan)


class TestPlanState:
    @pytest.fixture(scope="class")
    def resolved(self):
        # Three analytical caches, one of them a degraded model.
        plan = experiment_plan("ablation_analytical_quality", TINY)
        return resolve_data(plan.dataset, plan.cache_keys())

    def test_round_trip_is_bit_identical(self, resolved):
        dataset, caches = resolved
        state = pickle.loads(pickle.dumps(PlanState.pack(dataset, caches)))
        loaded, rebuilt = state.unpack()
        assert loaded.X.dtype == dataset.X.dtype and loaded.X.shape == dataset.X.shape
        assert loaded.X.tobytes() == dataset.X.tobytes()
        assert loaded.y.tobytes() == dataset.y.tobytes()
        assert loaded.feature_names == dataset.feature_names
        assert loaded.name == dataset.name
        assert list(rebuilt) == list(caches)
        for key, cache in rebuilt.items():
            expected = caches[key].predict(dataset.X)
            assert cache.predict(loaded.X).tobytes() == expected.tobytes(), key
            assert cache.misses == 0, key

    def test_digest_tracks_content(self, resolved):
        dataset, caches = resolved
        digest = PlanState.pack(dataset, caches).digest
        assert PlanState.pack(dataset, caches).digest == digest
        shifted = dataclasses.replace(dataset, y=dataset.y * 2.0)
        assert PlanState.pack(shifted, caches).digest != digest
        renamed = dataclasses.replace(dataset, name="other")
        assert PlanState.pack(renamed, caches).digest != digest


#: Worker-side counters installed by :func:`_install_worker_counters`.
_WORKER_COUNTS: dict = {}


def _install_worker_counters() -> None:
    """Count store opens, cache warms and cache-row misses in this process.

    Misses are counted at the cache, not the analytical model: the models
    override ``predict``, so a counter on their base class would miss them.
    """
    from repro.analytical.cache import AnalyticalPredictionCache

    _WORKER_COUNTS.update(stores=0, warms=0, misses=0)
    store_init = DatasetStore.__init__
    warm = AnalyticalPredictionCache.warm
    predict = AnalyticalPredictionCache.predict

    def counting_store_init(self, *args, **kwargs):
        _WORKER_COUNTS["stores"] += 1
        store_init(self, *args, **kwargs)

    def counting_warm(self, X):
        _WORKER_COUNTS["warms"] += 1
        return warm(self, X)

    def counting_predict(self, X):
        before = self.misses
        try:
            return predict(self, X)
        finally:
            _WORKER_COUNTS["misses"] += self.misses - before

    DatasetStore.__init__ = counting_store_init
    AnalyticalPredictionCache.warm = counting_warm
    AnalyticalPredictionCache.predict = counting_predict


def _worker_counts() -> dict:
    return dict(_WORKER_COUNTS)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the probed functions must be importable in the worker")
class TestWorkerIsolation:
    @pytest.mark.parametrize("with_store", [True, False], ids=["store", "no-store"])
    def test_workers_open_no_store_and_warm_no_cache(self, tmp_path, with_store):
        """Pool workers evaluate from the parent's plan state alone: with a
        file store they open none, and without one they re-warm nothing."""
        plan = experiment_plan("figure6", TINY)
        store = DatasetStore(tmp_path) if with_store else None
        serial = run_plan(plan, store=store)
        with WorkerPool(1) as pool:
            pool.probe(_install_worker_counters)
            pooled = run_plan(plan, workers=pool, store=store)
            counts = pool.probe(_worker_counts)
        assert counts == {"stores": 0, "warms": 0, "misses": 0}
        assert _rows(pooled) == _rows(serial)


class TestWorkerPool:
    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(ValueError):
            WorkerPool(-2)

    def test_closed_pool_refuses_work(self):
        pool = WorkerPool(1, prime=False)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.run_batches(sorted, [((3, 1, 2),)])
        with pytest.raises(RuntimeError):
            pool.probe(sorted, (3, 1, 2))

    def test_pool_requires_the_process_executor(self):
        with WorkerPool(1, prime=False) as pool:
            with pytest.raises(ValueError, match="process"):
                run_experiment("figure5", TINY, executor="serial", jobs=2, pool=pool)

    def test_warm_pool_bit_identical_across_plans(self):
        """The acceptance oracle: >= 2 consecutive plans on one pool (and a
        repeat of the first) stay bit-identical to serial while the pool
        reuses its workers — ``spawn_count`` never grows past ``jobs``."""
        names = ("figure5", "figure6")
        serial = {name: run_plan(experiment_plan(name, TINY)) for name in names}
        with WorkerPool(2) as pool:
            assert pool.spawn_count == 2  # primed eagerly
            first = run_all(TINY, names, executor="process", jobs=2, pool=pool)
            second = run_all(TINY, names, executor="process", jobs=2, pool=pool)
            assert pool.spawn_count == 2
            # Four plan runs of 2 x BATCHES_PER_WORKER batches each.
            assert pool.stats["batches"] == 4 * 2 * BATCHES_PER_WORKER
            assert pool.stats["compute_seconds"] > 0.0
        for name in names:
            assert _rows(first[name]) == _rows(serial[name])
            assert _rows(second[name]) == _rows(serial[name])


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="monkeypatched limit must be inherited by fork")
class TestWorkerStateLru:
    def test_memo_is_bounded_and_evictions_are_counted(self, monkeypatch):
        """With the limit forced to 1, a second distinct plan evicts the
        first plan's memo inside the worker — observable via the stats
        probe.  (Workers fork after the monkeypatch, inheriting it.)"""
        monkeypatch.setattr("repro.experiments.scheduler._WORKER_STATE_LIMIT", 1)
        with WorkerPool(1) as pool:
            for name in ("figure5", "figure6"):
                run_plan(experiment_plan(name, TINY), workers=pool)
            stats = pool.probe(worker_state_stats)
        assert stats["limit"] == 1
        assert stats["size"] == 1
        assert stats["evictions"] >= 1

    def test_default_limit_keeps_the_quick_suite(self):
        """The default cap fits a whole quick sweep: no evictions, so
        repeated plans on a warm pool always hit their memo."""
        stats = worker_state_stats()
        assert stats["limit"] >= 4
