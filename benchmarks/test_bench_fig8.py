"""Figure 8: hybrid vs pure extra trees on the FMM (t, N, q, k) dataset at
15-25% training fractions, with the untuned analytical model.

Expected shape (paper): the analytical model alone has very large error
(paper: 84.5%), the pure ML model retains high error even at 25%
training, and the hybrid improves on both significantly.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="figures")
def test_figure8(benchmark, settings, report):
    result = benchmark.pedantic(lambda: run_experiment("figure8", settings), rounds=1, iterations=1)
    report(result)

    hybrid = result.curves["hybrid"]
    extra_trees = result.curves["extra_trees"]
    # Analytical model alone is far off (paper: 84.5% MAPE).
    assert result.extra["analytical_mape"] > 50.0
    # The hybrid beats the pure ML model at every tested fraction ...
    for fraction in (0.15, 0.20, 0.25):
        assert hybrid.mape_at(fraction) < extra_trees.mape_at(fraction)
    # ... and beats the analytical model by a wide margin.
    assert min(hybrid.means) < 0.5 * result.extra["analytical_mape"]
