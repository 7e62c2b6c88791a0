"""Figure 3B: MAPE of decision trees / extra trees / random forests on the
FMM (t, N, q, k) dataset at 10-80% training fractions.

Expected shape (paper): even with very large training sets the pure ML
models retain substantial error on the FMM response surface, and accuracy
improves (slowly) with the training fraction.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="figures")
def test_figure3_fmm(benchmark, settings, report):
    result = benchmark.pedantic(
        lambda: run_experiment("figure3_fmm", settings), rounds=1, iterations=1)
    report(result)

    et = result.curves["extra_trees"]
    assert et.mape_at(0.80) < et.mape_at(0.10)
    # The FMM surface is much harder than the stencil one: error at the
    # smallest fraction stays well above 10%.
    assert et.mape_at(0.10) > 10.0
