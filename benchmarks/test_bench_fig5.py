"""Figure 5: hybrid vs pure extra trees in the region the analytical model
covers well (grid sizes only).

Expected shape (paper): the hybrid model trained on 1-4% of the dataset
reaches the accuracy the pure ML model needs 10-20% of the data for.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="figures")
def test_figure5(benchmark, settings, report):
    result = benchmark.pedantic(lambda: run_experiment("figure5", settings), rounds=1, iterations=1)
    report(result)

    hybrid = result.curves["hybrid"]
    extra_trees = result.curves["extra_trees"]
    # Hybrid at 4% is competitive with pure ML at 20% (the paper's headline).
    assert hybrid.mape_at(0.04) <= extra_trees.mape_at(0.20) * 1.5
    # And clearly better than pure ML would be with the same tiny budget
    # (compare against its 10% point as a conservative stand-in).
    assert hybrid.mape_at(0.04) <= extra_trees.mape_at(0.10) * 1.5
