"""Repeat the benchmark over seeds and summarise each metric's spread.

Runs ``perfbench/run.py`` once per (seed, workload) for every workload of
``BENCHMARK.json`` at its ``run_seconds``, workloads interleaved within
each seed so that every workload sees the same host drift.  Reports per
workload and end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound.  Optionally adds one traced run per workload on a given seed.

    python3 perfbench/steadiness.py --seeds 1-10 --out summary.json
    python3 perfbench/steadiness.py --seeds 1-10 --trace-seed 1 --out summary.json
    python3 perfbench/steadiness.py --compare parent.json change.json

A summary is steady when every run is correct, every spread but that of
``setup_s`` is within its bound, and the three sweeps print the same row
digest for every seed.  Set-up time is held to its bound only through its
median shift, because a run's set-up is short and shifts with the host.
Two summaries agree when they ran the same seeds at the same length, each
seed's digest is the same in both, and no median is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _run(workload: str, seed: int, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next((line.split()[1] for line in lines if line.startswith("digest ")), None)
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), {})
    result = json.loads(lines[-1])
    result.update(digest=digest, host=host)
    return result, elapsed


def summarise(values: list[float]) -> dict:
    """Median, quartiles and the quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def collect(seeds: list[int], trace_seed: int | None) -> dict:
    """Run every workload on every seed; return the summary :func:`report` reads."""
    workloads = [w["name"] for w in SPEC["workloads"]]
    runs: dict[str, list] = {w: [] for w in workloads}
    host: dict = {}
    for seed in seeds:
        for workload in workloads:
            result, elapsed = _run(workload, seed, 0)
            runs[workload].append((seed, result, elapsed))
            host = {k: v for k, v in result["host"].items()
                    if k not in ("steal_pct", "reference_ms")}
            print(f"{workload:13s} seed {seed:4d} {elapsed:6.1f} s  correct={result['correct']}"
                  f"  steal={result['host'].get('steal_pct')}"
                  f"  reference_ms={result['host'].get('reference_ms')}",
                  file=sys.stderr, flush=True)
    summary: dict = {"seeds": seeds, "run_seconds": SPEC["run_seconds"], "host": host,
                     "workloads": {}}
    for workload, items in runs.items():
        metrics = {}
        for spec in SPEC["end_to_end"]:
            stats = summarise([r["metrics"][spec["name"]]["value"] for _, r, _ in items])
            stats["bound"] = spec["bound"]
            metrics[spec["name"]] = stats
        summary["workloads"][workload] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for _, r, _ in items),
            "run_s": summarise([e for _, _, e in items]),
            "steal_pct": [r["host"].get("steal_pct") for _, r, _ in items],
            "reference_ms": [r["host"].get("reference_ms") for _, r, _ in items],
            "digests": {str(seed): r["digest"] for seed, r, _ in items},
        }
    if trace_seed is not None:
        summary["traced"] = {"seed": trace_seed, "workloads": {}}
        for workload in workloads:
            result, _ = _run(workload, trace_seed, 1)
            summary["traced"]["workloads"][workload] = {
                name: metric["value"] for name, metric in result["metrics"].items()}
    return summary


def digest_disagreements(summary: dict) -> list[str]:
    """Seeds whose sweeps printed different (or no) row digests."""
    by_seed: dict[str, dict[str, str | None]] = {}
    for workload, data in summary["workloads"].items():
        if workload.startswith("sweep-"):
            for seed, digest in data["digests"].items():
                by_seed.setdefault(seed, {})[workload] = digest
    return [f"seed {seed}: {digests}" for seed, digests in by_seed.items()
            if None in digests.values() or len(set(digests.values())) != 1]


def report(summary: dict) -> bool:
    """Print each metric's spread against its bound; True when the summary is steady.

    The spread of ``setup_s`` is printed but not held to its bound.
    """
    steady = True
    for workload, data in summary["workloads"].items():
        print(f"{workload}: runs {data['run_s']['median']:.1f} s median, "
              f"all correct: {data['all_correct']}")
        steady &= data["all_correct"]
        for name, stats in data["metrics"].items():
            ok = name == "setup_s" or stats["spread"] <= stats["bound"]
            steady &= ok
            flag = "" if stats["spread"] < stats["bound"] / 3 else (" <bound" if ok else " OVER")
            print(f"  {name:16s} median {stats['median']:12.5g}  spread {stats['spread']:7.2%}"
                  f"  bound {stats['bound']:.2f}{flag}")
    disagreements = digest_disagreements(summary)
    for line in disagreements:
        print(f"sweep digests disagree on {line}")
    if not disagreements:
        print("sweep digests agree on every seed")
    return steady and not disagreements


def compare(first: dict, second: dict) -> bool:
    """Print median shifts (second vs first); True when the two summaries agree."""
    if (first["seeds"], first["run_seconds"]) != (second["seeds"], second["run_seconds"]):
        print(f"not comparable: seeds/run_seconds {first['seeds']}/{first['run_seconds']} vs "
              f"{second['seeds']}/{second['run_seconds']}")
        return False
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    ok = True
    for workload, data in second["workloads"].items():
        before = first["workloads"][workload]
        for seed, digest in data["digests"].items():
            if digest != before["digests"][seed]:
                print(f"{workload:13s} seed {seed}: digest {before['digests'][seed]} -> {digest}")
                ok = False
        for name, stats in data["metrics"].items():
            base = before["metrics"][name]["median"]
            shift = (stats["median"] - base) / base if base else 0.0
            worse = shift if better[name] == "lower" else -shift
            ok &= worse <= stats["bound"]
            print(f"{workload:13s} {name:16s} {base:12.5g} -> {stats['median']:12.5g}"
                  f"  {shift:+7.2%}{'  WORSE' if worse > stats['bound'] else ''}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="seed list, e.g. 1-10 or 1,4,9")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return 0 if compare(first, second) else 1
    summary = collect(args.seeds, args.trace_seed)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if report(summary) else 1


if __name__ == "__main__":
    sys.exit(main())
