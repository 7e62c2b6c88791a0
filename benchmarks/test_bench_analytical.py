"""In-text analytical-model accuracy numbers.

The paper quotes the standalone analytical-model MAPE for the blocked
stencil dataset (42%) and the FMM dataset (84.5%).  This benchmark
regenerates the analytical-model MAPE (and the log-space correlation with
the measurements) for every dataset in the evaluation.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="analytical")
def test_analytical_accuracy(benchmark, settings, report):
    result = benchmark.pedantic(
        lambda: run_experiment("analytical_accuracy", settings), rounds=1, iterations=1)
    report(result)

    blocked = result.extra["stencil-blocked"]
    fmm = result.extra["fmm"]
    # Same band as the paper's in-text numbers: tens of percent for the
    # blocked stencil, around or above 100% for the FMM.
    assert 15.0 < blocked["mape"] < 80.0
    assert fmm["mape"] > 60.0
    # Despite the error magnitude the models rank configurations well,
    # which is what the hybrid approach exploits.
    assert blocked["log_correlation"] > 0.9
    assert fmm["log_correlation"] > 0.8
