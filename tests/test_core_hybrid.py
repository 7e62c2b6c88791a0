"""Tests for repro.core.hybrid (the paper's contribution)."""

import pickle

import numpy as np
import pytest

from repro.analytical import FmmAnalyticalModel, StencilAnalyticalModel
from repro.analytical.base import AnalyticalModel
from repro.core.hybrid import HybridPerformanceModel
from repro.ml import BaggingRegressor, ExtraTreesRegressor, KNeighborsRegressor
from repro.ml.metrics import mean_absolute_percentage_error
from repro.utils.validation import NotFittedError


@pytest.fixture(scope="module")
def stencil_setup(small_stencil_dataset):
    data = small_stencil_dataset
    train, test = data.train_test_indices(train_fraction=0.1, random_state=0)
    return data, train, test


class _ConstantModel(AnalyticalModel):
    """Predicts *value* for every configuration, *per_row* times per row."""

    def __init__(self, value, per_row=1):
        self.value = value
        self.per_row = per_row

    def config_from_features(self, row, feature_names):
        return row

    def predict_config(self, config):
        return self.value

    def predict_rows(self, X, feature_names):
        return np.full(X.shape[0] * self.per_row, self.value)


def _hybrid(data, **kwargs):
    defaults = dict(
        analytical_model=StencilAnalyticalModel(),
        feature_names=data.feature_names,
        ml_model=ExtraTreesRegressor(n_estimators=10, random_state=0),
        random_state=0,
    )
    defaults.update(kwargs)
    return HybridPerformanceModel(**defaults)


class TestFitPredict:
    def test_basic_fit_predict(self, stencil_setup):
        data, train, test = stencil_setup
        model = _hybrid(data).fit(data.X[train], data.y[train])
        preds = model.predict(data.X[test])
        assert preds.shape == (len(test),)
        assert np.all(np.isfinite(preds)) and np.all(preds > 0)

    def test_hybrid_beats_analytical_alone(self, stencil_setup):
        data, train, test = stencil_setup
        model = _hybrid(data).fit(data.X[train], data.y[train])
        parts = model.predict_components(data.X[test])
        hybrid_mape = mean_absolute_percentage_error(data.y[test], parts["final"])
        am_mape = mean_absolute_percentage_error(data.y[test], parts["analytical"])
        assert hybrid_mape < am_mape

    def test_hybrid_beats_pure_ml_at_small_training(self, small_stencil_dataset):
        data = small_stencil_dataset
        from repro.ml import Pipeline, StandardScaler

        mapes_ml, mapes_hy = [], []
        for seed in range(3):
            train, test = data.train_test_indices(train_size=8, random_state=seed)
            ml = Pipeline(steps=[("s", StandardScaler()),
                                 ("m", ExtraTreesRegressor(n_estimators=10, random_state=seed))])
            ml.fit(data.X[train], data.y[train])
            hy = _hybrid(data, random_state=seed).fit(data.X[train], data.y[train])
            mapes_ml.append(mean_absolute_percentage_error(data.y[test], ml.predict(data.X[test])))
            mapes_hy.append(mean_absolute_percentage_error(data.y[test], hy.predict(data.X[test])))
        assert np.mean(mapes_hy) < np.mean(mapes_ml)

    def test_more_training_data_is_not_worse(self, small_stencil_dataset):
        data = small_stencil_dataset
        mapes = []
        for fraction in (0.02, 0.3):
            train, test = data.train_test_indices(train_fraction=fraction, random_state=1)
            model = HybridPerformanceModel(analytical_model=StencilAnalyticalModel(),
                                           feature_names=data.feature_names,
                                           random_state=1).fit(data.X[train], data.y[train])
            mapes.append(mean_absolute_percentage_error(data.y[test],
                                                        model.predict(data.X[test])))
        small, large = mapes
        assert large < small * 1.5   # allow noise, but the trend must hold

    def test_deterministic_given_seed(self, stencil_setup):
        data, train, test = stencil_setup
        p1 = _hybrid(data).fit(data.X[train], data.y[train]).predict(data.X[test])
        p2 = _hybrid(data).fit(data.X[train], data.y[train]).predict(data.X[test])
        np.testing.assert_array_equal(p1, p2)

    def test_pickle_round_trip_predicts_identically(self, stencil_setup):
        data, train, test = stencil_setup
        model = _hybrid(data).fit(data.X[train], data.y[train])
        loaded = pickle.loads(pickle.dumps(model))
        expected = model.predict_components(data.X[test])
        for name, values in loaded.predict_components(data.X[test]).items():
            np.testing.assert_array_equal(values, expected[name])

    def test_default_ml_model_is_extra_trees(self, stencil_setup):
        data, train, _ = stencil_setup
        model = HybridPerformanceModel(
            analytical_model=StencilAnalyticalModel(),
            feature_names=data.feature_names, random_state=0,
        ).fit(data.X[train][:20], data.y[train][:20])
        assert isinstance(model.stacked_model_, ExtraTreesRegressor)

    def test_works_with_fmm_models(self, small_fmm_dataset):
        data = small_fmm_dataset
        train, test = data.train_test_indices(train_fraction=0.4, random_state=0)
        model = HybridPerformanceModel(
            analytical_model=FmmAnalyticalModel(),
            feature_names=data.feature_names,
            ml_model=ExtraTreesRegressor(n_estimators=20, random_state=0),
            random_state=0,
        ).fit(data.X[train], data.y[train])
        mape = mean_absolute_percentage_error(data.y[test], model.predict(data.X[test]))
        am_mape = mean_absolute_percentage_error(
            data.y[test], FmmAnalyticalModel().predict(data.X[test], data.feature_names))
        assert mape < am_mape


class TestOptions:
    def test_aggregation_mixes_analytical_and_stacked(self, stencil_setup):
        data, train, test = stencil_setup
        model = _hybrid(data, aggregate_analytical=True, analytical_weight=0.5)
        model.fit(data.X[train], data.y[train])
        parts = model.predict_components(data.X[test])
        np.testing.assert_allclose(
            parts["final"], 0.5 * parts["analytical"] + 0.5 * parts["stacked"])

    def test_weight_zero_equals_stacked_only(self, stencil_setup):
        data, train, test = stencil_setup
        model = _hybrid(data, aggregate_analytical=True, analytical_weight=0.0)
        model.fit(data.X[train], data.y[train])
        parts = model.predict_components(data.X[test])
        np.testing.assert_allclose(parts["final"], parts["stacked"])

    def test_bagging_wrapper(self, stencil_setup):
        """A bagged ``ml_model`` is cloned, seeded and stacked as given."""
        data, train, test = stencil_setup
        bag = BaggingRegressor(estimator=KNeighborsRegressor(n_neighbors=3),
                               n_estimators=4)
        model = _hybrid(data, ml_model=bag, random_state=7)
        model.fit(data.X[train], data.y[train])
        assert isinstance(model.stacked_model_, BaggingRegressor)
        assert model.stacked_model_ is not bag and bag.estimators_ is None
        assert model.stacked_model_.random_state == 7
        assert len(model.stacked_model_.estimators_) == 4
        assert model.predict(data.X[test]).shape == (len(test),)

    def test_linear_analytical_feature_variant(self, stencil_setup):
        data, train, test = stencil_setup
        model = _hybrid(data, log_analytical_feature=False)
        model.fit(data.X[train], data.y[train])
        assert np.all(np.isfinite(model.predict(data.X[test])))

    def test_standardize_off(self, stencil_setup):
        data, train, test = stencil_setup
        model = _hybrid(data, standardize=False).fit(data.X[train], data.y[train])
        assert model.scaler_ is None
        assert model.predict(data.X[test]).shape == (len(test),)


class TestValidation:
    def test_predict_before_fit(self, small_stencil_dataset):
        with pytest.raises(NotFittedError):
            _hybrid(small_stencil_dataset).predict(small_stencil_dataset.X[:3])

    def test_wrong_analytical_model_type(self, stencil_setup):
        data, train, _ = stencil_setup
        model = HybridPerformanceModel(analytical_model="not-a-model",
                                       feature_names=data.feature_names)
        with pytest.raises(TypeError):
            model.fit(data.X[train], data.y[train])

    def test_feature_name_count_mismatch(self, stencil_setup):
        data, train, _ = stencil_setup
        model = HybridPerformanceModel(analytical_model=StencilAnalyticalModel(),
                                       feature_names=["I", "J"])
        with pytest.raises(ValueError):
            model.fit(data.X[train], data.y[train])

    def test_invalid_weight(self, stencil_setup):
        data, train, _ = stencil_setup
        model = _hybrid(data, aggregate_analytical=True, analytical_weight=1.5)
        with pytest.raises(ValueError):
            model.fit(data.X[train], data.y[train])

    def test_analytical_prediction_of_the_wrong_shape_rejected(self, stencil_setup):
        data, train, _ = stencil_setup
        model = _hybrid(data, analytical_model=_ConstantModel(1.0, per_row=2))
        with pytest.raises(ValueError, match="analytical model returned shape"):
            model.fit(data.X[train], data.y[train])

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_analytical_time_must_be_finite_and_positive(self, stencil_setup, value):
        data, train, _ = stencil_setup
        model = _hybrid(data, analytical_model=_ConstantModel(value))
        with pytest.raises(ValueError, match="finite, positive times"):
            model.fit(data.X[train], data.y[train])

    def test_predict_feature_count_mismatch(self, stencil_setup):
        data, train, _ = stencil_setup
        model = _hybrid(data).fit(data.X[train], data.y[train])
        with pytest.raises(ValueError):
            model.predict(data.X[train][:, :2])
