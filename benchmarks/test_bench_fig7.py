"""Figure 7: hybrid vs pure extra trees on the multithreaded stencil
dataset, where the (serial) analytical model does not cover the threads
dimension at all.

Expected shape (paper): the hybrid is at least as accurate as the pure ML
model.  Deviation note: with the paper's literal
configuration space this dataset has only 128 points, so 1-4% training
means 3-5 samples and the two models end up statistically tied on our
simulated measurements.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="figures")
def test_figure7(benchmark, settings, report):
    result = benchmark.pedantic(lambda: run_experiment("figure7", settings), rounds=1, iterations=1)
    report(result)

    hybrid = result.curves["hybrid"]
    extra_trees = result.curves["extra_trees"]
    # The serial analytical model is blind to threads, hence clearly wrong
    # on its own ...
    assert result.extra["analytical_mape"] > 20.0
    # ... and the hybrid never does meaningfully worse than pure ML.
    for fraction in (0.01, 0.02, 0.04):
        assert hybrid.mape_at(fraction) <= extra_trees.mape_at(fraction) * 1.35
