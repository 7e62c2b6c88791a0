"""Text reporting of experiment results.

The benchmarks print these tables so their captured output is directly
comparable with the paper's figures (same series, same training
fractions, MAPE on the y-axis).
"""

from __future__ import annotations

from repro.core.evaluation import LearningCurve
from repro.experiments.runner import ExperimentResult

__all__ = ["format_curves", "format_result", "results_to_markdown",
           "summarize_trace", "format_trace_summary"]


def format_curves(curves: dict[str, LearningCurve]) -> str:
    """Fixed-width table of MAPE statistics for a set of learning curves."""
    header = (f"{'series':<24} {'train %':>8} {'n_train':>8} "
              f"{'MAPE mean':>10} {'MAPE std':>9} {'min':>7} {'max':>7}")
    lines = [header, "-" * len(header)]
    for curve in curves.values():
        for point in curve.points:
            lines.append(
                f"{curve.label:<24} {100 * point.fraction:>7.1f}% {point.n_train:>8d} "
                f"{point.mean:>9.1f}% {point.std:>8.1f}% {point.min:>6.1f}% {point.max:>6.1f}%"
            )
    return "\n".join(lines)


def format_result(result: ExperimentResult) -> str:
    """Multi-line report of one experiment (description, extras, curve table)."""
    lines = [
        f"== {result.experiment_id}: {result.description}",
        f"   dataset: {result.dataset_name}",
    ]
    for key, value in result.extra.items():
        if isinstance(value, dict):
            detail = ", ".join(f"{k}={_fmt(v)}" for k, v in value.items())
            lines.append(f"   {key}: {detail}")
        else:
            lines.append(f"   {key}: {_fmt(value)}")
    if result.curves:
        lines.append(format_curves(result.curves))
    return "\n".join(lines)


def summarize_trace(spans, *, slowest: int = 5) -> dict:
    """Aggregate a span list (or ``load_trace`` output) into a summary dict.

    Accepts :class:`~repro.obs.tracing.Span` objects or their
    ``as_dict()`` form interchangeably, so it works on a live
    ``TRACER.collect()`` result and on a ``--trace`` file read back.

    Returns a plain dict with:

    * ``spans`` / ``wall_seconds`` — span count and end-to-end wall time;
    * ``phases`` — per span name (``experiment``/``plan``/``batch``/
      ``cell``/...): count, summed duration, the longest single span
      (per-phase critical path), and the phase's own wall-clock window;
    * ``slowest_cells`` — the *slowest* cell spans with their identity;
    * ``workers`` — per-worker cell counts, busy seconds and utilization
      (busy / wall), where a cell's worker is its own ``worker``
      attribute, its parent batch's ``worker``/``pid``, or ``"local"``.
    """
    dicts = [span if isinstance(span, dict) else span.as_dict()
             for span in spans]
    if not dicts:
        return {"spans": 0, "wall_seconds": 0.0, "phases": {},
                "slowest_cells": [], "workers": {}}
    start = min(d["start"] for d in dicts)
    end = max(d["start"] + d["duration"] for d in dicts)
    wall = end - start

    phases: dict[str, dict] = {}
    for d in dicts:
        phase = phases.setdefault(
            d["name"], {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0,
                        "_start": d["start"], "_end": d["start"]})
        phase["count"] += 1
        phase["total_seconds"] += d["duration"]
        phase["max_seconds"] = max(phase["max_seconds"], d["duration"])
        phase["_start"] = min(phase["_start"], d["start"])
        phase["_end"] = max(phase["_end"], d["start"] + d["duration"])
    for phase in phases.values():
        phase["wall_seconds"] = phase.pop("_end") - phase.pop("_start")

    by_id = {d["span_id"]: d for d in dicts}

    def worker_of(cell: dict) -> str:
        if "worker" in cell.get("attrs", {}):
            return str(cell["attrs"]["worker"])
        parent = by_id.get(cell.get("parent_id"))
        if parent is not None:
            attrs = parent.get("attrs", {})
            if "worker" in attrs:
                return str(attrs["worker"])
            if "pid" in attrs:
                return f"pid-{attrs['pid']}"
        return "local"

    cells = [d for d in dicts if d["name"] == "cell"]
    slowest_cells = [
        {"seconds": d["duration"], "worker": worker_of(d),
         **{k: d["attrs"][k] for k in ("series", "fraction", "repeat")
            if k in d.get("attrs", {})}}
        for d in sorted(cells, key=lambda d: -d["duration"])[:slowest]
    ]
    workers: dict[str, dict] = {}
    for d in cells:
        record = workers.setdefault(worker_of(d),
                                    {"cells": 0, "busy_seconds": 0.0})
        record["cells"] += 1
        record["busy_seconds"] += d["duration"]
    for record in workers.values():
        record["utilization"] = record["busy_seconds"] / wall if wall else 0.0

    return {"spans": len(dicts), "wall_seconds": wall, "phases": phases,
            "slowest_cells": slowest_cells, "workers": workers}


def format_trace_summary(summary: dict) -> str:
    """Fixed-width report of a :func:`summarize_trace` dict."""
    lines = [f"trace: {summary['spans']} span(s) over "
             f"{summary['wall_seconds']:.3f}s"]
    if summary["phases"]:
        lines.append(f"{'phase':<12} {'count':>6} {'total s':>9} "
                     f"{'max s':>8} {'wall s':>8}")
        for name, phase in sorted(summary["phases"].items()):
            lines.append(f"{name:<12} {phase['count']:>6d} "
                         f"{phase['total_seconds']:>9.3f} "
                         f"{phase['max_seconds']:>8.3f} "
                         f"{phase['wall_seconds']:>8.3f}")
    if summary["slowest_cells"]:
        lines.append("slowest cells:")
        for cell in summary["slowest_cells"]:
            identity = ", ".join(f"{k}={cell[k]}" for k in
                                 ("series", "fraction", "repeat") if k in cell)
            lines.append(f"  {cell['seconds']:.3f}s  {identity} "
                         f"[{cell['worker']}]")
    if summary["workers"]:
        lines.append("worker utilization:")
        for worker, record in sorted(summary["workers"].items()):
            lines.append(f"  {worker:<20} {record['cells']:>4d} cell(s) "
                         f"{record['busy_seconds']:>8.3f}s busy "
                         f"({100 * record['utilization']:.0f}%)")
    return "\n".join(lines)


def results_to_markdown(results: dict[str, ExperimentResult]) -> str:
    """Markdown summary of several experiments."""
    lines = ["| experiment | series | train % | MAPE mean | MAPE std |",
             "|---|---|---|---|---|"]
    for result in results.values():
        for row in result.rows():
            lines.append(
                f"| {result.experiment_id} | {row['series']} | "
                f"{100 * row['fraction']:.1f}% | {row['mape_mean']:.1f}% | "
                f"{row['mape_std']:.1f}% |"
            )
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)
