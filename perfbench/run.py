"""Benchmark command: one workload, one seed, every metric with its unit.

Usage, from the root of a source tree::

    python3 perfbench/run.py --workload sweep-pool --seed 1 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around each layer's public calls and prints
the per-layer table instead (see ``perfbench/tracing.py``).  The last line
of standard output is one JSON object::

    {"correct": true, "attempted": 283, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` next to this directory; without it
the command exits with status 2 and prints no result.  Scratch files live
in ``.perfbench-work/`` at the root and are removed at exit, except the
last merged trace of each workload (``trace-<workload>.jsonl``).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


#: ``prctl`` option that makes a process the reaper of orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent exits first.

    A pool worker that attaches shared memory starts a multiprocessing
    resource tracker of its own, which outlives the worker by a moment.
    Adopted here, :func:`_reap_children` waits for it; otherwise it would
    fall to an init process that may never reap it.
    """
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # not Linux: orphans go to init
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print(f"perfbench: prctl: {os.strerror(ctypes.get_errno())}", file=sys.stderr)


def _children() -> list[int]:
    """PIDs of this process's live and exited-but-unreaped children."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == me:
                kids.append(int(entry))
    return kids


def _reap_children(grace_s: float = 20.0) -> None:
    """Stop this process's resource tracker, then wait for every child to end.

    Children still running after *grace_s* are killed, then waited for.
    """
    if "multiprocessing.resource_tracker" in sys.modules:
        # Closing its pipe ends the tracker; _stop() also waits for it.
        sys.modules["multiprocessing.resource_tracker"]._resource_tracker._stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0 and time.monotonic() > deadline:
            for kid in _children():
                try:
                    os.kill(kid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = math.inf
        elif pid == 0:
            time.sleep(0.01)


def _prepare_environment(trace_dir: Path | None) -> None:
    """Import paths for this process and every process it launches."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    paths = [str(SRC), str(HERE / "hook")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        os.environ["PERFBENCH_TRACE_DIR"] = str(trace_dir)


def layer_metrics(out: dict, spans_by_pid: dict, main_pid: int,
                  span_cost_s: float) -> dict[str, float]:
    """The per-layer table of a traced run; bypassed layers read 0."""
    from perfbench import tracing, workloads

    agg = tracing.aggregate(spans_by_pid)
    metrics = {name: 0.0 for name, _ in workloads.PER_LAYER}
    for span_name, (time_metric, count_metric, which) in workloads.SPAN_METRICS.items():
        row = agg.get(span_name)
        if row is not None:
            metrics[time_metric] = row["self_s"]
            if count_metric:
                metrics[count_metric] = row[which]
    if "core.cell" in agg:
        metrics["core.cell_max_s"] = agg["core.cell"]["max_s"]
    for name in metrics:
        if name in out:
            metrics[name] = out[name]
    if "pool.batches" in out:
        metrics["experiments.pool_dispatch_s"] = out["pool.dispatch_seconds"]
        metrics["experiments.pool_batches"] = out["pool.batches"]
        waited = metrics["experiments.pool_wait_s"]
        if waited > 0:
            metrics["experiments.pool_busy_pct"] = (
                100.0 * out["pool.compute_seconds"] / (workloads.NPROC * waited))
    timed = [s for s in spans_by_pid.get(main_pid, []) if s[2] == "bench.timed"]
    timed_s = sum(end - start for _, _, _, start, end, _, _ in timed)
    if out.get("workload") == "serve-mixed":
        metrics["bench.unattributed_pct"] = out["client_unattributed_pct"]
        handle = agg.get("serving.handle")
        if handle is not None:
            handle_p50_ms = 1000.0 * float(sorted(handle["durations"])[
                len(handle["durations"]) // 2])
            metrics["obs.http_overhead_ms"] = out["p50_ms"] - handle_p50_ms
    elif timed_s > 0:
        timed_ids = {span[0] for span in timed}
        children = sum(end - start for _, parent, _, start, end, _, _ in
                       spans_by_pid[main_pid] if parent in timed_ids)
        metrics["bench.unattributed_pct"] = 100.0 * (timed_s - children) / timed_s
    if timed_s > 0:
        # Counts the program's spans that begin inside the timed phase, in
        # any process (on Linux perf_counter is one clock machine-wide), and
        # leaves the benchmark's own spans out.
        windows = [(start, end) for _, _, _, start, end, _, _ in timed]
        n_spans = sum(1 for spans in spans_by_pid.values()
                      for _, _, name, start, _, _, _ in spans
                      if not name.startswith("bench.")
                      and any(low <= start <= high for low, high in windows))
        metrics["bench.trace_overhead_pct"] = 100.0 * span_cost_s * n_spans / timed_s
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result object and what the report prints."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    trace_dir = workdir / "trace" if trace else None
    workdir.mkdir(parents=True, exist_ok=True)
    _prepare_environment(trace_dir)
    from perfbench import tracing, workloads

    recorder = uninstall = None
    if trace:
        recorder = tracing.Recorder(trace_dir)
        uninstall = tracing.install(recorder)
    try:
        job = workloads.Run(workload, seed, seconds, str(workdir), recorder=recorder,
                            uninstall=uninstall, started=_STARTED)
        out = workloads.run_workload(job)
        out["workload"] = workload
        attempted, failed = int(out["attempted"]), int(out["failed"])
        out["success_pct"] = 100.0 * (attempted - failed) / attempted if attempted else 0.0
        if trace:
            cost = tracing.wrapper_cost_s()
            spans = tracing.load_spans(trace_dir)
            metrics = layer_metrics(out, spans, os.getpid(), cost)
            units = dict(workloads.PER_LAYER)
            with open(WORK / f"trace-{workload}.jsonl", "w") as fh:
                for pid, pid_spans in sorted(spans.items()):
                    fh.writelines(json.dumps([pid, *span]) + "\n" for span in pid_spans)
        else:
            metrics = {name: out[name] for name, _ in workloads.END_TO_END}
            units = dict(workloads.END_TO_END)
    finally:
        if recorder is not None and uninstall is not None:
            uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    finite = all(math.isfinite(v) for v in metrics.values())
    import numpy

    host = {"nproc": workloads.NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "steal_pct": round(out["host.steal_pct"], 3),
            "reference_ms": round(out["host.reference_ms"], 3)}
    return {
        "host": host,
        "digest": out.get("digest"),
        "raw": {name[4:]: value for name, value in out.items() if name.startswith("raw.")},
        "result": {
            "correct": failed == 0 and attempted > 0 and finite,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value if math.isfinite(value) else 0.0,
                               "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-serial", "sweep-pool", "sweep-fleet", "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase (sweeps: at least one whole sweep)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        # Shells start background jobs with SIGINT ignored, and children
        # inherit that; repro-serve shuts down cleanly only on SIGINT.
        signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    _adopt_orphans()
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - a run that cannot finish prints no result
        traceback.print_exc()
        return 1
    finally:
        _reap_children()
    result = report["result"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + json.dumps(report["host"]))
    if report["digest"]:
        print(f"digest {report['digest']}")
    print(f"operations {result['attempted']} failed {result['failed']}")
    for name, metric in result["metrics"].items():
        raw = report["raw"].get(name) if not args.trace else None
        wall_clock = "" if raw is None else f"   (wall clock {raw:.6g})"
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}{wall_clock}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
