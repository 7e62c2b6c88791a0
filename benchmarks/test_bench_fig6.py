"""Figure 6: hybrid vs pure extra trees with an *inaccurate* analytical
model (loop blocking added, model untuned).

Expected shape (paper): at 1-4% training the hybrid roughly halves the
pure-ML error even though the analytical model itself is ~40% off.
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="figures")
def test_figure6(benchmark, settings, report):
    result = benchmark.pedantic(lambda: run_experiment("figure6", settings), rounds=1, iterations=1)
    report(result)

    hybrid = result.curves["hybrid"]
    extra_trees = result.curves["extra_trees"]
    # The analytical model alone is substantially wrong (paper: 42%).
    assert result.extra["analytical_mape"] > 20.0
    # Incorporating it still cuts the pure-ML error roughly in half.
    for fraction in (0.01, 0.02, 0.04):
        assert hybrid.mape_at(fraction) < extra_trees.mape_at(fraction)
    assert hybrid.mape_at(0.04) < 0.65 * extra_trees.mape_at(0.04)
