"""CI performance gate over the ``BENCH_engine.json`` history.

The benchmark suite (``benchmarks/test_bench_perf.py``) appends one
timestamped entry per benchmark per run to the ``history`` list in
``BENCH_engine.json``.  This script is the enforcement point: after the
benchmarks have run in CI it compares, for every *gated* benchmark, each
tracked speedup ratio in the newest history entry against the previous
entry of the same benchmark, and fails (exit code 1) if any ratio
regressed by more than :data:`TOLERANCE`.

Speedup ratios compare two engines in the same process on the same
machine, so they are largely hardware-independent and comparable across
the heterogeneous machines that contribute history entries.  A workload
counts as *tracked* when it records both a ``speedup`` and an acceptance
``threshold`` — ratios the benchmark suite itself asserts.  Purely
informational ratios (the exact builder's extra-trees fit over the
frozen reference) are reported by the suite but not gated.

``scheduler_speedup`` gets an *absolute* floor instead of the relative
one: parallel-vs-serial tracks the host's core count, so comparing
entries from heterogeneous machines would gate noise.  The newest entry
must beat serial (> 1.0x) when it was recorded on a multi-core host, and
stay near parity (>= :data:`SCHEDULER_SINGLE_CORE_FLOOR`) on a
single-core box, where parallel physically cannot win and the floor
bounds pure scheduling overhead instead.  Only entries from the
warm-pool benchmark protocol (they record a ``phases`` breakdown) are
gated; older per-plan-spawn entries are informational history.

Usage::

    python benchmarks/bench_gate.py [path/to/BENCH_engine.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Maximum tolerated relative drop of a speedup ratio vs the previous entry.
TOLERANCE = 0.25

#: Benchmarks whose ``speedup`` fields are gated (hardware-independent
#: engine-vs-engine ratios — ``serving_latency``'s batched-vs-single
#: request ratio divides out raw host speed the same way).
#: ``scheduler_speedup`` tracks core count and gets an absolute
#: cpus-conditional floor instead (see below).
GATED_BENCHMARKS = ("exact_engine", "serving_latency")

#: Absolute floors for the newest warm-pool ``scheduler_speedup`` entry:
#: on a multi-core host the parallel sweep must beat serial outright; on
#: a single-core host it must stay near parity (the floor bounds the
#: scheduler's total overhead — pool dispatch, pickling, merge — since a
#: speedup > 1 is physically impossible there).
SCHEDULER_MULTI_CORE_FLOOR = 1.0
SCHEDULER_SINGLE_CORE_FLOOR = 0.65

DEFAULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def _tracked(entry: dict) -> dict[str, dict]:
    """``workload name -> fields`` for every *tracked* workload.

    Tracked = the workload records both a speedup and an acceptance
    threshold (see module docstring); threshold-less ratios are
    informational and excluded from the gate.
    """
    return {
        name: fields
        for name, fields in entry.get("workloads", {}).items()
        if "speedup" in fields and "threshold" in fields
    }


#: Fields that say how a tracked ratio was measured: the forest size and
#: the number of timed pairs it is a ratio of medians of.
_MEASURED_BY = ("n_trees", "samples")


def _baseline_for(entries: list[dict], name: str, current: dict) -> float | None:
    """Most recent prior speedup of workload *name* measured the same way.

    Comparing a ratio against one measured at another forest size, or
    from another number of timed samples, would gate noise, so a baseline
    must record the same ``n_trees`` and ``samples`` as the *current*
    fields (both absent counts as a match): changing either starts a new
    baseline.
    """
    for prev in reversed(entries):
        fields = _tracked(prev).get(name)
        if fields is not None and all(fields.get(key) == current.get(key)
                                      for key in _MEASURED_BY):
            return float(fields["speedup"])
    return None


def check_scheduler(history: list[dict]) -> list[str]:
    """Absolute-floor gate on the newest ``scheduler_speedup`` entry.

    Only warm-pool entries (recording a ``phases`` breakdown) are gated;
    entries predating the warm-pool protocol are informational.  The
    floor depends on the ``cpus`` the entry recorded: > 1.0x on
    multi-core hosts, near-parity on single-core ones.
    """
    failures: list[str] = []
    entries = [e for e in history if e.get("benchmark") == "scheduler_speedup"]
    if not entries:
        print("[bench-gate] scheduler_speedup: no entries")
        return failures
    current = entries[-1]
    for name, fields in current.get("workloads", {}).items():
        if "phases" not in fields or "speedup" not in fields:
            print(f"[bench-gate] scheduler_speedup/{name}: pre-warm-pool "
                  f"entry — skipped")
            continue
        speedup = float(fields["speedup"])
        multi_core = (current.get("cpus") or 1) > 1
        floor = (SCHEDULER_MULTI_CORE_FLOOR if multi_core
                 else SCHEDULER_SINGLE_CORE_FLOOR)
        kind = "multi-core" if multi_core else "single-core"
        status = "OK" if speedup > floor else "TOO SLOW"
        print(f"[bench-gate] scheduler_speedup/{name}: {speedup:.2f}x vs "
              f"{kind} floor {floor:.2f}x {status}")
        if speedup <= floor:
            failures.append(
                f"scheduler_speedup/{name}: warm-pool speedup {speedup:.2f}x "
                f"at or below the {kind} floor {floor:.2f}x")
    return failures


def check_history(history: list[dict]) -> list[str]:
    """Return a list of human-readable gate failures (empty = pass)."""
    failures: list[str] = []
    for benchmark in GATED_BENCHMARKS:
        entries = [e for e in history if e.get("benchmark") == benchmark]
        if not entries:
            print(f"[bench-gate] {benchmark}: no entries")
            continue
        current = entries[-1]
        for name, fields in _tracked(current).items():
            speedup = float(fields["speedup"])
            baseline = _baseline_for(entries[:-1], name, fields)
            if baseline is None:
                print(f"[bench-gate] {benchmark}/{name}: {speedup:.2f}x, "
                      f"no prior entry measured the same way — skipped")
                continue
            floor = baseline * (1.0 - TOLERANCE)
            status = "OK" if speedup >= floor else "REGRESSED"
            print(f"[bench-gate] {benchmark}/{name}: {speedup:.2f}x vs "
                  f"previous {baseline:.2f}x (floor {floor:.2f}x) {status}")
            if speedup < floor:
                failures.append(
                    f"{benchmark}/{name}: speedup {speedup:.2f}x regressed more "
                    f"than {TOLERANCE:.0%} below the previous {baseline:.2f}x")
    failures.extend(check_scheduler(history))
    return failures


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    path = Path(args[0]) if args else DEFAULT_PATH
    if not path.exists():
        print(f"[bench-gate] {path} not found — did the benchmark suite run?")
        return 1
    stored = json.loads(path.read_text())
    history = stored.get("history", []) if isinstance(stored, dict) else []
    if not history:
        print(f"[bench-gate] {path} has no history entries")
        return 1
    failures = check_history(history)
    if failures:
        print("[bench-gate] FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("[bench-gate] all tracked speedup ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
