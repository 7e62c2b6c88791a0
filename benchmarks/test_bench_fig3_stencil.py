"""Figure 3A: MAPE of decision trees / extra trees / random forests on the
blocked-stencil dataset at 1-10% training fractions.

Expected shape (paper): all models improve with more data, errors at 1-2%
are large (tens of percent), and extra trees is the best performer.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="figures")
def test_figure3_stencil(benchmark, settings, report):
    result = benchmark.pedantic(
        lambda: run_experiment("figure3_stencil", settings), rounds=1, iterations=1)
    report(result)

    et = result.curves["extra_trees"]
    dt = result.curves["decision_tree"]
    # Errors shrink as the training fraction grows.
    assert et.mape_at(0.10) < et.mape_at(0.01)
    # Extra trees (the paper's pick) is at least as good as a single tree
    # at the largest training fraction.
    assert et.mape_at(0.10) <= dt.mape_at(0.10) * 1.2
