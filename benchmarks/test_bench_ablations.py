"""Ablation benchmarks for the design choices of the hybrid model.

Not figures from the paper; these quantify the contribution of each
ingredient of the hybrid model (aggregation stage, analytical-model
quality, sampling strategy, choice of stacked learner).
"""

import pytest

from repro.experiments import run_experiment


@pytest.mark.benchmark(group="ablations")
def test_ablation_aggregation(benchmark, settings, report):
    result = benchmark.pedantic(
        lambda: run_experiment("ablation_aggregation", settings), rounds=1, iterations=1)
    report(result)
    stacked = result.curves["hybrid_stacked_only"]
    aggregated = result.curves["hybrid_aggregated"]
    # Aggregating with a ~35%-MAPE analytical model cannot beat pure
    # stacking by much; it must stay within a factor of the analytical error.
    assert min(aggregated.means) < result.extra["analytical_only_mape"]
    assert min(stacked.means) <= min(aggregated.means) * 1.5


@pytest.mark.benchmark(group="ablations")
def test_ablation_analytical_quality(benchmark, settings, report):
    result = benchmark.pedantic(
        lambda: run_experiment("ablation_analytical_quality", settings), rounds=1, iterations=1)
    report(result)
    # A calibrated analytical model is never worse standalone than the
    # untuned one (the hybrid itself is invariant to that rescaling).
    assert result.extra["calibrated_am_mape"] <= result.extra["untuned_am_mape"]
    full = result.curves["hybrid_full_am"]
    constant = result.curves["hybrid_constant_am"]
    # The informative analytical model beats the uninformative one at the
    # largest tested fraction: the hybrid's advantage really does come from
    # the analytical feature, not from the extra column itself.
    assert full.mape_at(0.04) < constant.mape_at(0.04)


@pytest.mark.benchmark(group="ablations")
def test_ablation_sampling_strategy(benchmark, settings, report):
    result = benchmark.pedantic(
        lambda: run_experiment("ablation_sampling_strategy", settings), rounds=1, iterations=1)
    report(result)
    assert set(result.curves) == {"hybrid_uniform", "hybrid_stratified"}


@pytest.mark.benchmark(group="ablations")
def test_ablation_ml_backend(benchmark, settings, report):
    result = benchmark.pedantic(
        lambda: run_experiment("ablation_ml_backend", settings), rounds=1, iterations=1)
    report(result)
    et = result.curves["hybrid_extra_trees"]
    knn = result.curves["hybrid_knn"]
    # Extra trees (the paper's choice) is at least competitive with the
    # alternative stacked learners.
    assert min(et.means) <= min(knn.means) * 1.25
