"""Self-test of the benchmark: ``python3 -m pytest perfbench/selftest.py -q``.

Smoke-size runs, in this process with ``Run.settings`` patched to the
quick experiment settings, check that every workload prints every
declared metric with its unit and waits for every process it started,
that the three sweeps agree, that corrupted outputs lower
``success_pct``, that a delay injected into one wrapped call lands on
that layer's row of the traced table, and that reference seconds follow
the program's speed and not the host's.  The file name keeps it out of
the repository's default test collection: it starts servers, fleets and
pools, and takes under two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402  (needs the paths above)
from perfbench import steadiness, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def in_process(monkeypatch):
    """Smoke-size runs inside this process, restoring what they change."""
    from repro.experiments.runner import ExperimentSettings

    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    monkeypatch.delenv("PERFBENCH_TRACE_DIR", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(workloads.Run, "settings", lambda run: dataclasses.replace(
        ExperimentSettings.quick(), random_state=run.seed))

    def _run(workload: str, trace: bool = False, seed: int = 7) -> dict:
        return bench.run(workload, seed, 0.5, trace)

    return _run


def test_spec_matches_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in workloads.END_TO_END]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(workloads.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(workloads.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, in_process, capsys):
    assert bench.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0"]) == 0
    stdout = capsys.readouterr().out
    result = _last_json(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert result["metrics"]["success_pct"]["value"] == 100.0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    if workload != "serve-mixed":
        assert "digest " in stdout
    # Every process the run started, and every one those left behind, has
    # been waited for.
    assert bench._children() == []


def test_reference_seconds_follow_the_program_not_the_host(monkeypatch):
    from perfbench import hostclock

    host = {"slowdown": 1.0}
    monkeypatch.setattr(hostclock, "reference_task",
                        lambda: time.sleep(0.02 * host["slowdown"]))

    def phase(program_s):
        time.sleep(program_s * host["slowdown"])

    clock = hostclock.HostClock()
    _, wall, base = clock.measure(phase, 0.1)
    assert base == pytest.approx(0.1 * hostclock.REFERENCE_S / 0.02, rel=0.2)
    host["slowdown"] = 2.0
    clock.checkpoint()
    _, slow_wall, slow_host = clock.measure(phase, 0.1)
    assert slow_wall > 1.5 * wall
    assert slow_host == pytest.approx(base, rel=0.2)
    host["slowdown"] = 1.0
    clock.checkpoint()
    _, _, slow_program = clock.measure(phase, 0.2)
    assert slow_program == pytest.approx(2 * base, rel=0.2)


def test_traced_run_prints_the_layer_table(in_process):
    result = in_process("sweep-fleet", trace=True)["result"]
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    # Fleet workers load the wrappers at start-up: their cells are traced.
    assert metrics["core.cells"] > 0 and metrics["ml.fits.extra_trees"] > 0
    assert metrics["distributed.close_s"] > 0 and metrics["distributed.relay_frames"] > 0
    assert metrics["serving.handle_s"] == 0  # bypassed
    assert 0 <= metrics["bench.unattributed_pct"] < 100
    assert 0 < metrics["bench.trace_overhead_pct"] < 100
    # Calibration spans are discarded, never written into the trace.
    with open(bench.WORK / "trace-sweep-fleet.jsonl") as fh:
        names = {json.loads(line)[3] for line in fh}
    assert "core.cell" in names and "bench.timed" in names
    assert "bench.calibrate" not in names
    # Reference checkpoints are spans of their own, so no layer absorbs them.
    assert "bench.reference" in names and metrics["host.reference_ms"] > 0


def test_sweeps_agree_with_each_other(in_process):
    digests = {w: in_process(w, seed=5)["digest"]
               for w in ("sweep-serial", "sweep-pool", "sweep-fleet")}
    assert len(set(digests.values())) == 1, digests


def test_steadiness_flags_disagreeing_sweeps():
    def summary(pool_digest):
        return {"workloads": {
            "sweep-serial": {"digests": {"1": "aa", "2": "bb"}},
            "sweep-pool": {"digests": {"1": "aa", "2": pool_digest}},
            "serve-mixed": {"digests": {"1": None, "2": None}},
        }}

    assert steadiness.digest_disagreements(summary("bb")) == []
    assert len(steadiness.digest_disagreements(summary("cc"))) == 1
    assert len(steadiness.digest_disagreements(summary(None))) == 1


def test_corrupted_cell_lowers_success(in_process, monkeypatch):
    from repro.experiments import scheduler

    original = scheduler.evaluate_cell

    def nan_for_hybrid(cell, factory, dataset):
        result = original(cell, factory, dataset)
        if cell.series == "hybrid" and cell.repeat == 0:
            return dataclasses.replace(result, mape=math.nan)
        return result

    monkeypatch.setattr(scheduler, "evaluate_cell", nan_for_hybrid)
    result = in_process("sweep-serial")["result"]
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["success_pct"]["value"] < 100


def test_pool_result_differing_from_serial_lowers_success(in_process, monkeypatch):
    from repro.experiments import scheduler

    original = scheduler.evaluate_cell

    def off_by_a_bit(cell, factory, dataset):
        result = original(cell, factory, dataset)
        return dataclasses.replace(result, mape=math.nextafter(result.mape, math.inf))

    # Patched before the pool forks, so only its workers return shifted values.
    monkeypatch.setattr(scheduler, "evaluate_cell", off_by_a_bit)
    result = in_process("sweep-pool")["result"]
    assert result["failed"] > 0
    assert result["metrics"]["success_pct"]["value"] < 100


def test_corrupted_prediction_lowers_success(in_process, monkeypatch):
    original = workloads._client

    def tampering_client(host, port, sequence, counter, deadline, records, loop_time):
        original(host, port, sequence, counter, deadline, records, loop_time)
        index, name, t0, t1, status, data = records[0]
        reply = json.loads(data)
        reply["predictions"][0] *= 1.0 + 1e-9
        records[0] = (index, name, t0, t1, status, json.dumps(reply).encode())

    monkeypatch.setattr(workloads, "_client", tampering_client)
    result = in_process("serve-mixed")["result"]
    assert result["failed"] >= 1
    assert result["metrics"]["success_pct"]["value"] < 100


def test_injected_delay_lands_on_its_layer(in_process, monkeypatch):
    from repro.ml.bagging import BaggingRegressor
    from repro.ml.tree import DecisionTreeRegressor

    baseline = in_process("sweep-serial", trace=True)["result"]["metrics"]
    fit_tree, fit_bagging = DecisionTreeRegressor.fit, BaggingRegressor.fit
    in_bagging = threading.local()
    injected = []

    def bagging_fit(self, *args, **kwargs):
        in_bagging.on = True
        try:
            return fit_bagging(self, *args, **kwargs)
        finally:
            in_bagging.on = False

    def slower_tree_fit(self, *args, **kwargs):
        # Only the decision_tree series' own fits: the trees a bagged
        # ensemble fits belong to ml.fit_s.bagged_tree.  A fixed sleep, so
        # the slowdown stands out of host noise on a smoke-size run.
        if not getattr(in_bagging, "on", False):
            time.sleep(0.1)
            injected.append(0.1)
        return fit_tree(self, *args, **kwargs)

    monkeypatch.setattr(BaggingRegressor, "fit", bagging_fit)
    monkeypatch.setattr(DecisionTreeRegressor, "fit", slower_tree_fit)
    slowed = in_process("sweep-serial", trace=True)["result"]["metrics"]
    growth = {name: slowed[name]["value"] - baseline[name]["value"]
              for name in slowed if slowed[name]["unit"] == "s"}
    total = sum(injected)
    assert total > 0
    assert growth.pop("ml.fit_s.decision_tree") >= 0.75 * total
    assert max(growth.values()) < 0.5 * total


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-serial",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
