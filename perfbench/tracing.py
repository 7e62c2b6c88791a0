"""Benchmark-side tracing: spans around the public calls of each layer.

A traced run (``--trace 1``) wraps the public functions and methods each
layer of ``repro`` exposes, from benchmark code only: ``src/`` is not
touched.  Every wrapped call records one span ``(id, parent, name, start,
end, count, thread)`` in an in-memory buffer of its process; the buffer is
written out as JSON lines when the process exits (or grows large), one
file per process in the trace directory.

Processes get the wrappers three ways:

* the benchmark process calls :func:`install` itself;
* forked pool workers inherit them (the buffer is reset in the child);
* fleet workers and the model server are started with the same command
  and environment as in an untraced run, plus ``PERFBENCH_TRACE_DIR``;
  ``perfbench/hook/sitecustomize.py`` (always on their ``PYTHONPATH``)
  sees the variable and calls :func:`install` at interpreter start-up.

Nesting follows the thread's open spans.  A call nested directly inside a
span of the same *group* (a forest's per-tree fits inside the forest fit,
``AnalyticalPredictionCache.predict`` inside ``.warm``) is not recorded
on its own, so it counts towards the outer call.  A layer's time is its
*self* time: span duration minus the spans directly nested in it.
"""

from __future__ import annotations

import atexit
import contextlib
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

ENV_DIR = "PERFBENCH_TRACE_DIR"

#: Spans buffered per process before an early write-out.
_FLUSH_EVERY = 20_000


class Recorder:
    """In-memory span buffer of one process, written out as JSON lines."""

    def __init__(self, out_dir: str | os.PathLike | None) -> None:
        #: Where :meth:`flush` writes; ``None`` discards the spans instead.
        self.out_dir = None if out_dir is None else Path(out_dir)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._exit_hooked = False

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, name, group, count, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span; return its result."""
        stack = self._stack()
        if group is not None and stack and stack[-1][1] == group:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, group))
        n = 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                n = count(args, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self._add([span_id, parent, name(args) if callable(name) else name,
                       start, end, n, threading.get_ident()])

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one benchmark-level span around the ``with`` body."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, None))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._add([span_id, parent, name, start, end, 1, threading.get_ident()])

    def _add(self, span: list) -> None:
        with self._lock:
            if not self._exit_hooked:
                self._hook_exit()
            self._spans.append(span)
            full = len(self._spans) >= _FLUSH_EVERY
        if full:
            self.flush()

    def _hook_exit(self) -> None:
        # Forked multiprocessing workers leave through os._exit, which
        # skips atexit but runs multiprocessing's own exit finalizers.
        from multiprocessing import util

        if self.out_dir is not None:
            atexit.register(self.flush)
            util.Finalize(None, self.flush, exitpriority=100)
        self._exit_hooked = True

    def flush(self) -> None:
        """Append the buffered spans to this process's file and clear them."""
        with self._lock:
            spans, self._spans = self._spans, []
        if not spans or self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)


# --------------------------------------------------------------------------- #
# What is wrapped
# --------------------------------------------------------------------------- #
_ML_FAMILIES = {
    "DecisionTreeRegressor": "decision_tree",
    "ExtraTreesRegressor": "extra_trees",
    "RandomForestRegressor": "random_forest",
    "BaggingRegressor": "bagged_tree",
    "KNeighborsRegressor": "knn",
}
ML_FAMILIES = tuple(_ML_FAMILIES.values())


def _ml_fit_name(args) -> str:
    return "ml.fit." + _ML_FAMILIES.get(type(args[0]).__name__, "other")


def _len_result(args, result) -> int:
    return len(result)


def _len_arg(index: int):
    return lambda args, result: len(args[index])


#: ``(module, attribute path, span name, group, count)``.  The span name is
#: a string or a function of the call's positional arguments; *count*
#: turns ``(args, result)`` into the span's work count (default 1).
TARGETS = (
    ("repro.datasets.store", "DatasetSpec.build", "datasets.build", "datasets.build", None),
    ("repro.datasets.registry", "load_dataset", "datasets.build", "datasets.build", None),
    ("repro.datasets.backends", "StoreBackend.read", "datasets.read", "datasets.io",
     _len_result),
    ("repro.datasets.backends", "StoreBackend.write", "datasets.write", "datasets.io",
     _len_arg(2)),
    ("repro.stencil.perf_sim", "StencilPerformanceSimulator.times", "stencil.simulate",
     "simulate", _len_result),
    ("repro.fmm.perf_sim", "FmmPerformanceSimulator.times", "fmm.simulate", "simulate",
     _len_result),
    ("repro.analytical.cache", "AnalyticalPredictionCache.warm", "analytical.warm",
     "analytical", _len_arg(1)),
    ("repro.analytical.cache", "AnalyticalPredictionCache.predict", "analytical.predict",
     "analytical", None),
    ("repro.core.evaluation", "evaluate_cell", "core.cell", "core.cell", None),
    ("repro.core.hybrid", "HybridPerformanceModel.fit", "core.hybrid", "core.hybrid", None),
    ("repro.core.hybrid", "HybridPerformanceModel.predict", "core.hybrid", "core.hybrid",
     None),
    ("repro.ml.tree", "DecisionTreeRegressor.fit", _ml_fit_name, "ml", None),
    ("repro.ml.forest", "BaseForestRegressor.fit", _ml_fit_name, "ml", None),
    ("repro.ml.bagging", "BaggingRegressor.fit", _ml_fit_name, "ml", None),
    ("repro.ml.neighbors", "KNeighborsRegressor.fit", _ml_fit_name, "ml", None),
    ("repro.ml.tree", "DecisionTreeRegressor.predict", "ml.predict", "ml", None),
    ("repro.ml.forest", "BaseForestRegressor.predict", "ml.predict", "ml", None),
    ("repro.ml.bagging", "BaggingRegressor.predict", "ml.predict", "ml", None),
    ("repro.ml.neighbors", "KNeighborsRegressor.predict", "ml.predict", "ml", None),
    ("repro.experiments.scheduler", "run_plan", "experiments.plan", "experiments.plan",
     None),
    ("repro.experiments.figures", "analytical_accuracy", "experiments.planless", None,
     None),
    ("repro.experiments.ablations", "ablation_sampling_strategy", "experiments.planless",
     None, None),
    ("repro.experiments.pool", "WorkerPool.__init__", "experiments.pool_spawn", None, None),
    ("repro.experiments.pool", "WorkerPool.run_batches", "experiments.pool_wait", None,
     None),
    ("repro.experiments.pool", "WorkerPool.close", "experiments.pool_close", None, None),
    ("repro.distributed.coordinator", "Coordinator.execute", "distributed.execute", None,
     None),
    ("repro.distributed.coordinator", "Coordinator.close", "distributed.close", None, None),
    ("repro.serving.server", "ModelServer.predict", "serving.handle", None, None),
    ("repro.serving.server", "ModelServer.recommend", "serving.handle", None, None),
    ("repro.serving.server", "ModelServer.load_model", "serving.load_model", None, None),
    ("repro.serving.server", "MicroBatcher.predict", "serving.batcher", None, None),
    ("repro.serving.model_io", "ServedModel.predict_rows", "serving.predict_rows", None,
     None),
)


def _wrap(recorder: Recorder, fn, name, group, count):
    def wrapper(*args, **kwargs):
        return recorder.call(name, group, count, fn, args, kwargs)

    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def install(recorder: Recorder):
    """Wrap every target; return a function that restores the originals.

    Module-level functions are also rebound in every loaded ``repro``
    module that imported them by name (``from x import f``), so callers
    holding their own reference reach the wrapper too.
    """
    undo = []
    for module_name, path, name, group, count in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _wrap(recorder, original, name, group, count)
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))
        if owner is module:
            for other in list(sys.modules.values()):
                if (other is not module and getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, attr, None) is original):
                    setattr(other, attr, wrapper)
                    undo.append((other, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def install_from_env() -> None:
    """Start-up hook of traced child processes (see ``hook/sitecustomize.py``)."""
    out_dir = os.environ.get(ENV_DIR)
    if out_dir:
        install(Recorder(out_dir))


# --------------------------------------------------------------------------- #
# Reading a trace back
# --------------------------------------------------------------------------- #
def load_spans(trace_dir: str | os.PathLike) -> dict[int, list[list]]:
    """``pid -> spans`` from every span file in *trace_dir*."""
    by_pid: dict[int, list[list]] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path) as fh:
            by_pid.setdefault(pid, []).extend(json.loads(line) for line in fh)
    return by_pid


def aggregate(by_pid: dict[int, list[list]]) -> dict[str, dict]:
    """Per span name: summed self time, work count, span count, longest span.

    Self time is a span's duration minus the spans directly nested in it;
    a child is nested in the span whose id it names as parent, within the
    same process (ids are per process).
    """
    out: dict[str, dict] = {}
    for spans in by_pid.values():
        child_time: dict[int, float] = {}
        for _id, parent, _name, start, end, _n, _tid in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for span_id, _parent, name, start, end, n, _tid in spans:
            row = out.setdefault(name, {"self_s": 0.0, "count": 0, "spans": 0,
                                        "max_s": 0.0, "durations": []})
            duration = end - start
            row["self_s"] += duration - child_time.get(span_id, 0.0)
            row["count"] += n
            row["spans"] += 1
            row["max_s"] = max(row["max_s"], duration)
            row["durations"].append(duration)
    return out


def wrapper_cost_s(samples: int = _FLUSH_EVERY // 4) -> float:
    """Measured extra seconds one recorded span adds to a call.

    Measured on a throwaway recorder that discards its spans, with fewer
    samples than trigger a write-out: no calibration span reaches a trace,
    and no file write lands in the timed loop.
    """
    recorder = Recorder(None)

    def noop():
        return None

    wrapped = _wrap(recorder, noop, "bench.calibrate", None, None)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    traced = time.perf_counter() - start
    return max(0.0, (traced - bare) / samples)
