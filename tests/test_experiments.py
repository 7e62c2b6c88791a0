"""Tests for repro.experiments (figures, ablations, runner, reporting).

These run every experiment at deliberately tiny settings: the goal is to
verify wiring, result structure and basic orderings, not to reproduce the
paper's numbers (that is what ``benchmarks/`` does).
"""

import pickle

import pytest

from repro.datasets import blocked_small_grid_dataset, fmm_dataset, grid_only_dataset, threaded_dataset
from repro.datasets.store import DatasetStore
from repro.experiments import (
    EXPERIMENTS,
    ExperimentSettings,
    ablation_aggregation,
    ablation_analytical_quality,
    ablation_ml_backend,
    ablation_sampling_strategy,
    analytical_accuracy,
    figure3_fmm,
    figure3_stencil,
    figure5,
    figure6,
    figure7,
    figure8,
    format_curves,
    format_result,
    results_to_markdown,
    run_experiment,
)
from repro.experiments.plan import PLANNED_EXPERIMENTS, experiment_plan
from repro.experiments.scheduler import warmed_cache

TINY = ExperimentSettings(n_estimators=5, n_repeats=1, max_configs=150, random_state=0)


@pytest.fixture(scope="module")
def tiny_stencil_blocked():
    return blocked_small_grid_dataset(max_configs=150, random_state=0)


@pytest.fixture(scope="module")
def tiny_fmm():
    return fmm_dataset(max_configs=150, random_state=0)


class TestSettings:
    def test_presets(self):
        assert ExperimentSettings.quick().n_estimators < ExperimentSettings.full().n_estimators
        assert ExperimentSettings.full().max_configs is None


class TestFigureExperiments:
    def test_figure3_stencil(self, tiny_stencil_blocked):
        result = figure3_stencil(settings=TINY, dataset=tiny_stencil_blocked)
        assert result.experiment_id == "figure3A"
        assert set(result.curves) == {"decision_tree", "extra_trees", "random_forest"}
        assert all(len(c.points) == 5 for c in result.curves.values())

    def test_figure3_fmm(self, tiny_fmm):
        result = figure3_fmm(settings=TINY, dataset=tiny_fmm)
        assert result.experiment_id == "figure3B"
        fractions = result.curves["extra_trees"].fractions
        assert fractions == [0.10, 0.20, 0.40, 0.60, 0.80]

    def test_figure5(self):
        dataset = grid_only_dataset(max_configs=150, random_state=0)
        result = figure5(settings=TINY, dataset=dataset)
        assert set(result.curves) == {"extra_trees", "hybrid"}
        assert result.curves["extra_trees"].fractions == [0.10, 0.15, 0.20]
        assert result.curves["hybrid"].fractions == [0.01, 0.02, 0.04]
        assert "analytical_mape" in result.extra

    def test_figure6_hybrid_beats_pure_ml(self, tiny_stencil_blocked):
        result = figure6(settings=TINY, dataset=tiny_stencil_blocked)
        # The qualitative claim of the paper at the largest tested fraction.
        assert result.curves["hybrid"].mape_at(0.04) < result.curves["extra_trees"].mape_at(0.04)

    def test_figure7(self):
        dataset = threaded_dataset()
        result = figure7(settings=TINY, dataset=dataset)
        assert set(result.curves) == {"extra_trees", "hybrid"}
        assert result.extra["analytical_mape"] > 0

    def test_figure8(self, tiny_fmm):
        result = figure8(settings=TINY, dataset=tiny_fmm)
        assert result.curves["hybrid"].fractions == [0.15, 0.20, 0.25]
        assert result.extra["analytical_mape"] > 0
        assert all(len(p.mapes) == TINY.n_repeats for p in result.curves["hybrid"].points)

    def test_analytical_accuracy(self):
        result = analytical_accuracy(settings=TINY)
        assert set(result.extra) == {"stencil-grid-only", "stencil-blocked",
                                     "stencil-threaded", "fmm"}
        for info in result.extra.values():
            assert info["mape"] > 0
            assert -1.0 <= info["log_correlation"] <= 1.0


class TestAblations:
    def test_aggregation(self, tiny_stencil_blocked):
        result = ablation_aggregation(settings=TINY, dataset=tiny_stencil_blocked)
        assert set(result.curves) == {"hybrid_stacked_only", "hybrid_aggregated"}

    def test_analytical_quality(self, tiny_stencil_blocked):
        result = ablation_analytical_quality(settings=TINY, dataset=tiny_stencil_blocked)
        assert result.extra["calibrated_am_mape"] <= result.extra["untuned_am_mape"]
        assert result.extra["calibration_scale"] > 0
        assert set(result.curves) == {"hybrid_full_am", "hybrid_blocking_blind_am",
                                      "hybrid_constant_am"}

    def test_sampling_strategy(self, tiny_stencil_blocked):
        result = ablation_sampling_strategy(settings=TINY, dataset=tiny_stencil_blocked)
        assert set(result.curves) == {"hybrid_uniform", "hybrid_stratified"}

    def test_ml_backend(self, tiny_stencil_blocked):
        result = ablation_ml_backend(settings=TINY, dataset=tiny_stencil_blocked)
        assert len(result.curves) == 4


class TestPlanlessExperimentsReadTheStore:
    PLANLESS = ("analytical_accuracy", "ablation_sampling_strategy")

    @pytest.mark.parametrize("name", PLANLESS)
    def test_warm_store_adds_no_miss_and_matches_a_store_less_run(self, tmp_path, name):
        reference = run_experiment(name, TINY)
        store = DatasetStore(tmp_path)
        cold = run_experiment(name, TINY, store=store)
        assert store.misses > 0 and store.cache_misses > 0
        misses = (store.misses, store.cache_misses, store.hits, store.cache_hits)
        warm = run_experiment(name, TINY, store=store)
        assert (store.misses, store.cache_misses) == misses[:2]
        assert store.hits > misses[2] and store.cache_hits > misses[3]
        for result in (cold, warm):
            assert pickle.dumps(result.curves) == pickle.dumps(reference.curves)
            assert result.extra == reference.extra

    def test_a_store_warmed_by_the_plans_has_all_they_read(self, tmp_path):
        store = DatasetStore(tmp_path)
        for name in PLANNED_EXPERIMENTS:
            plan = experiment_plan(name, TINY)
            dataset = store.get(plan.dataset)
            for key in plan.cache_keys():
                warmed_cache(key, plan.dataset, dataset, store)
        misses = (store.misses, store.cache_misses)
        for name in self.PLANLESS:
            run_experiment(name, TINY, store=store)
        assert (store.misses, store.cache_misses) == misses

    def test_a_dataset_override_bypasses_the_store(self, tmp_path, tiny_stencil_blocked):
        store = DatasetStore(tmp_path)
        result = ablation_sampling_strategy(settings=TINY, dataset=tiny_stencil_blocked,
                                            store=store)
        assert (store.hits, store.misses, store.cache_hits, store.cache_misses) == (0, 0, 0, 0)
        assert pickle.dumps(result.curves) == pickle.dumps(ablation_sampling_strategy(
            settings=TINY, dataset=tiny_stencil_blocked).curves)


class TestRunnerAndReporting:
    def test_run_experiment_by_name(self):
        result = run_experiment("analytical_accuracy", settings=TINY)
        assert result.experiment_id == "analytical_accuracy"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_experiment_registry_names(self):
        assert "figure3_stencil" in EXPERIMENTS and "ablation_ml_backend" in EXPERIMENTS

    def test_reporting_functions(self, tiny_stencil_blocked):
        result = figure6(settings=TINY, dataset=tiny_stencil_blocked)
        table = format_curves(result.curves)
        assert "extra_trees" in table and "MAPE" in table
        report = format_result(result)
        assert "figure6" in report
        markdown = results_to_markdown({"figure6": result})
        assert markdown.count("|") > 10
        rows = result.rows()
        assert all({"series", "fraction", "mape_mean"} <= set(r) for r in rows)
        assert result.best_mape("hybrid") <= min(result.curves["hybrid"].means) + 1e-12

    def test_summary_method(self, tiny_stencil_blocked):
        result = figure6(settings=TINY, dataset=tiny_stencil_blocked)
        assert "dataset" in result.summary()
