"""Tests for repro.analytical.calibration."""

import numpy as np
import pytest

from repro.analytical.calibration import calibrate_scale
from repro.analytical.stencil_model import StencilAnalyticalModel
from repro.ml.metrics import mean_absolute_percentage_error
from repro.stencil.config import StencilConfig
from repro.stencil.perf_sim import StencilPerformanceSimulator


class TestCalibrateScale:
    def test_exact_scale_recovered(self):
        preds = np.array([1.0, 2.0, 3.0])
        meas = 2.5 * preds
        assert calibrate_scale(preds, meas) == pytest.approx(2.5)

    def test_least_squares_property(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(1.0, 2.0, 50)
        meas = 3.0 * preds + rng.normal(0, 0.01, 50)
        s = calibrate_scale(preds, meas)
        assert s == pytest.approx(3.0, rel=0.02)

    def test_rescaling_lowers_mape_against_simulator(self):
        configs = [StencilConfig(I=s, J=s, K=s) for s in range(96, 257, 32)]
        measured = StencilPerformanceSimulator(noise=0.0).times(configs)
        preds = StencilAnalyticalModel().predict_configs(configs)
        scale = calibrate_scale(preds, measured)
        assert (mean_absolute_percentage_error(measured, scale * preds)
                < mean_absolute_percentage_error(measured, preds))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            calibrate_scale([1.0, 2.0], [1.0])

    def test_zero_predictions_rejected(self):
        with pytest.raises(ValueError):
            calibrate_scale([0.0, 0.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_scale([], [])
