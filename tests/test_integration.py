"""End-to-end integration tests across the library's layers.

These exercise the flows a user of the library would follow: build a
dataset from a simulator or the real engines, train hybrid and pure-ML
models, and compare them — i.e. miniature versions of the paper's
experiments and of the examples shipped in ``examples/``.
"""

import numpy as np

from repro.analytical import FmmAnalyticalModel, StencilAnalyticalModel
from repro.core import HybridPerformanceModel
from repro.datasets import load_dataset
from repro.fmm import Fmm, FmmConfig, FmmPerformanceSimulator, random_cube
from repro.ml import ExtraTreesRegressor, Pipeline, StandardScaler
from repro.ml.metrics import mean_absolute_percentage_error
from repro.stencil import StencilConfig, StencilExecutor, StencilPerformanceSimulator


def _hybrid_and_ml_mapes(data, analytical_model, train_fraction, random_state=0):
    """Held-out MAPEs of the hybrid model and the standardized pure-ML
    baseline (both on 30 extra trees), fitted on the same uniform split."""
    train, test = data.train_test_indices(train_fraction=train_fraction,
                                          random_state=random_state)
    hybrid = HybridPerformanceModel(analytical_model=analytical_model,
                                    feature_names=data.feature_names,
                                    random_state=random_state)
    ml = Pipeline(steps=[("scale", StandardScaler()),
                         ("model", ExtraTreesRegressor(n_estimators=30,
                                                       random_state=random_state))])
    return [mean_absolute_percentage_error(
                data.y[test], model.fit(data.X[train], data.y[train]).predict(data.X[test]))
            for model in (hybrid, ml)]


class TestStencilWorkflow:
    def test_hybrid_workflow_on_simulated_measurements(self):
        data = load_dataset("stencil-blocked", max_configs=400, random_state=1)
        hybrid_mape, ml_mape = _hybrid_and_ml_mapes(data, StencilAnalyticalModel(), 0.04)
        am_mape = mean_absolute_percentage_error(
            data.y, StencilAnalyticalModel().predict(data.X, data.feature_names))
        # Paper's headline ordering: hybrid < pure ML and hybrid < analytical alone.
        assert hybrid_mape < ml_mape
        assert hybrid_mape < am_mape

    def test_hybrid_beats_ml_at_a_tiny_fraction(self, small_stencil_dataset):
        hybrid_mape, ml_mape = _hybrid_and_ml_mapes(
            small_stencil_dataset, StencilAnalyticalModel(), 0.03, random_state=3)
        assert hybrid_mape < ml_mape

    def test_hybrid_on_real_executor_measurements(self):
        # End-to-end with *real* measured times on laptop-scale grids.
        from repro.datasets.stencil_datasets import stencil_dataset_from_space
        from repro.stencil import StencilConfigSpace

        sizes = [8, 12, 16, 20, 24, 28, 32, 40, 48]
        space = StencilConfigSpace(grid_sizes=[(s, s, s) for s in sizes])
        data = stencil_dataset_from_space(
            space, name="real-grids",
            simulator=StencilExecutor(timesteps=1, repeats=1))
        model = HybridPerformanceModel(
            analytical_model=StencilAnalyticalModel(),
            feature_names=data.feature_names,
            ml_model=ExtraTreesRegressor(n_estimators=10, random_state=0),
            random_state=0,
        )
        train, test = data.train_test_indices(train_size=5, random_state=0)
        model.fit(data.X[train], data.y[train])
        preds = model.predict(data.X[test])
        assert np.all(preds > 0)

    def test_simulator_and_analytical_model_agree_on_ranking(self):
        sim = StencilPerformanceSimulator(noise=0.0)
        am = StencilAnalyticalModel()
        configs = [StencilConfig(I=s, J=s, K=s) for s in (32, 64, 128, 192, 256)]
        sim_times = sim.times(configs)
        am_times = am.predict_configs(configs)
        assert np.all(np.argsort(sim_times) == np.argsort(am_times))


class TestFmmWorkflow:
    def test_fmm_solver_validates_against_direct_sum(self):
        particles = random_cube(800, random_state=0)
        fmm = Fmm(order=4, max_per_leaf=32)
        err = fmm.relative_error(particles)
        assert err < 5e-3

    def test_fmm_hybrid_prediction_workflow(self):
        data = load_dataset("fmm", max_configs=500, random_state=2)
        hybrid_mape, ml_mape = _hybrid_and_ml_mapes(data, FmmAnalyticalModel(), 0.2)
        assert hybrid_mape < ml_mape

    def test_simulator_reflects_real_solver_tradeoff(self):
        # Both the real solver and the simulator should agree that, at fixed N
        # and order, an extreme leaf size is slower than a moderate one.
        particles = random_cube(2000, random_state=1)
        real_times = {}
        for q in (8, 64):
            fmm = Fmm(order=3, max_per_leaf=q)
            real_times[q] = fmm.evaluate(particles).timings.total
        sim = FmmPerformanceSimulator(noise=0.0)
        sim_times = {q: sim.time(FmmConfig(threads=1, n_particles=2000,
                                           particles_per_leaf=q, order=3))
                     for q in (8, 64)}
        assert (real_times[8] > real_times[64]) == (sim_times[8] > sim_times[64])


class TestCrossApplication:
    def test_same_hybrid_code_path_for_both_applications(self):
        stencil_data = load_dataset("stencil-grid-only", max_configs=200, random_state=0)
        fmm_data = load_dataset("fmm", max_configs=200, random_state=0)
        for data, am in ((stencil_data, StencilAnalyticalModel()),
                         (fmm_data, FmmAnalyticalModel())):
            model = HybridPerformanceModel(
                analytical_model=am, feature_names=data.feature_names,
                ml_model=ExtraTreesRegressor(n_estimators=8, random_state=0),
                random_state=0)
            train, test = data.train_test_indices(train_fraction=0.1, random_state=0)
            model.fit(data.X[train], data.y[train])
            mape = mean_absolute_percentage_error(data.y[test], model.predict(data.X[test]))
            assert np.isfinite(mape)
