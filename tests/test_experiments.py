"""Tests for repro.experiments (figures, ablations, runner, reporting).

These run every experiment at deliberately tiny settings: the goal is to
verify wiring, result structure and basic orderings, not to reproduce the
paper's numbers (that is what ``benchmarks/`` does).
"""

import pickle

import pytest

from repro.datasets.store import DatasetSpec, DatasetStore
from repro.experiments import (
    EXPERIMENTS,
    ExperimentSettings,
    ablations,
    figures,
    format_curves,
    format_result,
    results_to_markdown,
    run_all,
    run_experiment,
)
from repro.experiments.plan import PLANNED_EXPERIMENTS, experiment_plan, planless_reads
from repro.experiments.scheduler import resolve_data

TINY = ExperimentSettings(n_estimators=5, n_repeats=1, max_configs=150, random_state=0)


@pytest.fixture(scope="module")
def tiny_figure6():
    return run_experiment("figure6", TINY)


class TestSettings:
    def test_presets(self):
        assert ExperimentSettings.quick().n_estimators < ExperimentSettings.full().n_estimators
        assert ExperimentSettings.full().max_configs is None


def _figure3_stencil(result):
    assert result.experiment_id == "figure3A"
    assert set(result.curves) == {"decision_tree", "extra_trees", "random_forest"}
    assert all(len(c.points) == 5 for c in result.curves.values())


def _figure3_fmm(result):
    assert result.experiment_id == "figure3B"
    assert result.curves["extra_trees"].fractions == [0.10, 0.20, 0.40, 0.60, 0.80]


def _figure5(result):
    assert set(result.curves) == {"extra_trees", "hybrid"}
    assert result.curves["extra_trees"].fractions == [0.10, 0.15, 0.20]
    assert result.curves["hybrid"].fractions == [0.01, 0.02, 0.04]
    assert "analytical_mape" in result.extra


def _figure6(result):
    # The qualitative claim of the paper at the largest tested fraction.
    assert result.curves["hybrid"].mape_at(0.04) < result.curves["extra_trees"].mape_at(0.04)


def _figure7(result):
    assert set(result.curves) == {"extra_trees", "hybrid"}
    assert result.extra["analytical_mape"] > 0


def _figure8(result):
    assert result.curves["hybrid"].fractions == [0.15, 0.20, 0.25]
    assert result.extra["analytical_mape"] > 0
    assert all(len(p.mapes) == TINY.n_repeats for p in result.curves["hybrid"].points)


def _analytical_accuracy(result):
    assert set(result.extra) == {"stencil-grid-only", "stencil-blocked",
                                 "stencil-threaded", "fmm"}
    for info in result.extra.values():
        assert info["mape"] > 0
        assert -1.0 <= info["log_correlation"] <= 1.0


def _ablation_aggregation(result):
    assert set(result.curves) == {"hybrid_stacked_only", "hybrid_aggregated"}


def _ablation_analytical_quality(result):
    assert result.extra["calibrated_am_mape"] <= result.extra["untuned_am_mape"]
    assert result.extra["calibration_scale"] > 0
    assert set(result.curves) == {"hybrid_full_am", "hybrid_blocking_blind_am",
                                  "hybrid_constant_am"}


def _ablation_sampling_strategy(result):
    assert set(result.curves) == {"hybrid_uniform", "hybrid_stratified"}


def _ablation_ml_backend(result):
    assert len(result.curves) == 4


#: What each experiment's result must show at ``TINY`` settings.
CHECKS = {
    "figure3_stencil": _figure3_stencil,
    "figure3_fmm": _figure3_fmm,
    "figure5": _figure5,
    "figure6": _figure6,
    "figure7": _figure7,
    "figure8": _figure8,
    "analytical_accuracy": _analytical_accuracy,
    "ablation_aggregation": _ablation_aggregation,
    "ablation_analytical_quality": _ablation_analytical_quality,
    "ablation_sampling_strategy": _ablation_sampling_strategy,
    "ablation_ml_backend": _ablation_ml_backend,
}


class TestEveryExperimentByName:
    def test_every_experiment_has_checks(self):
        assert tuple(CHECKS) == EXPERIMENTS

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_run_experiment(self, name):
        CHECKS[name](run_experiment(name, TINY))

    def test_planned_experiments_are_those_with_a_plan(self):
        assert PLANNED_EXPERIMENTS == tuple(
            name for name in EXPERIMENTS if experiment_plan(name, TINY) is not None)

    @pytest.mark.parametrize("module, name", [
        (figures, "analytical_accuracy"), (ablations, "ablation_sampling_strategy")])
    def test_planless_function_is_looked_up_on_its_module(self, monkeypatch, module, name):
        """``run_experiment`` calls whatever its module holds under the name
        when it runs, so a wrapper installed there (as a profiler does)
        sees every call."""
        calls = []

        def stand_in(settings, store):
            calls.append((settings, store))
            return "stand-in result"

        monkeypatch.setattr(module, name, stand_in)
        assert run_experiment(name, TINY) == "stand-in result"
        assert calls == [(TINY, None)]

    def test_a_store_less_run_all_builds_each_dataset_once(self, monkeypatch):
        """Without a store, ``run_all`` shares one in-memory store across the
        sequence: each distinct dataset is simulated once, and the rows are
        those of store-less ``run_experiment`` calls, bit for bit."""
        reference = {name: run_experiment(name, TINY) for name in EXPERIMENTS}
        builds = []
        build = DatasetSpec.build

        def counting_build(spec):
            builds.append(spec)
            return build(spec)

        monkeypatch.setattr(DatasetSpec, "build", counting_build)
        results = run_all(TINY)
        assert len(builds) == len(set(builds)) == 4
        assert tuple(results) == EXPERIMENTS
        for name, result in results.items():
            assert pickle.dumps(result.curves) == pickle.dumps(reference[name].curves)
            assert result.extra == reference[name].extra


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

    @pytest.mark.parametrize("name", PLANLESS)
    def test_a_cold_run_reads_exactly_its_planless_reads(self, tmp_path, name):
        """``planless_reads`` names every dataset and cache the experiment
        reads and nothing else, so ``--store-prune`` can keep them."""
        reads = planless_reads(name, TINY)
        store = DatasetStore(tmp_path)
        run_experiment(name, TINY, store=store)
        assert (store.misses, store.cache_misses) == (len(reads), len(reads))
        for spec, key in reads:
            assert store.has_dataset(spec) and store.has_cache(key, spec)

    def test_only_the_planless_experiments_have_planless_reads(self):
        assert {name for name in EXPERIMENTS if planless_reads(name, TINY)} == set(self.PLANLESS)
        assert all(planless_reads(name, TINY) == () for name in PLANNED_EXPERIMENTS)

    def test_a_store_warmed_by_the_plans_has_all_they_read(self, tmp_path):
        store = DatasetStore(tmp_path)
        for name in PLANNED_EXPERIMENTS:
            plan = experiment_plan(name, TINY)
            resolve_data(plan.dataset, plan.cache_keys(), store)
        misses = (store.misses, store.cache_misses)
        for name in self.PLANLESS:
            run_experiment(name, TINY, store=store)
        assert (store.misses, store.cache_misses) == misses


class TestRunnerAndReporting:
    def test_run_experiment_by_name(self):
        result = run_experiment("analytical_accuracy", settings=TINY)
        assert result.experiment_id == "analytical_accuracy"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_experiment_names(self):
        assert "figure3_stencil" in EXPERIMENTS and "ablation_ml_backend" in EXPERIMENTS

    def test_reporting_functions(self, tiny_figure6):
        result = tiny_figure6
        table = format_curves(result.curves)
        assert "extra_trees" in table and "MAPE" in table
        report = format_result(result)
        assert "figure6" in report
        markdown = results_to_markdown({"figure6": result})
        assert markdown.count("|") > 10
        rows = result.rows()
        assert all({"series", "fraction", "mape_mean"} <= set(r) for r in rows)
        assert result.best_mape("hybrid") <= min(result.curves["hybrid"].means) + 1e-12

    def test_summary_method(self, tiny_figure6):
        assert "dataset" in tiny_figure6.summary()
