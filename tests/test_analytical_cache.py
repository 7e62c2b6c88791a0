"""Tests for vectorized analytical prediction and the prediction cache."""

import numpy as np
import pytest

from repro.analytical import (
    AnalyticalPredictionCache,
    FmmAnalyticalModel,
    StencilAnalyticalModel,
)
from repro.analytical.base import AnalyticalModel


def _per_row_reference(model, X, feature_names):
    """The pre-vectorization path: one config rebuild per row."""
    return np.array(
        [model.predict_config(model.config_from_features(row, feature_names))
         for row in np.atleast_2d(X)],
        dtype=np.float64,
    )


class TestVectorizedPredictRows:
    def test_fmm_matches_per_row_exactly(self, small_fmm_dataset):
        data = small_fmm_dataset
        model = FmmAnalyticalModel()
        expected = _per_row_reference(model, data.X, data.feature_names)
        np.testing.assert_array_equal(
            model.predict_rows(data.X, data.feature_names), expected)

    def test_fmm_with_expansion_phases(self, small_fmm_dataset):
        data = small_fmm_dataset
        model = FmmAnalyticalModel(include_expansion_phases=True)
        expected = _per_row_reference(model, data.X, data.feature_names)
        np.testing.assert_array_equal(
            model.predict_rows(data.X, data.feature_names), expected)

    def test_stencil_matches_per_row_exactly(self, small_stencil_dataset):
        data = small_stencil_dataset
        model = StencilAnalyticalModel()
        expected = _per_row_reference(model, data.X, data.feature_names)
        np.testing.assert_array_equal(
            model.predict_rows(data.X, data.feature_names), expected)

    @pytest.mark.parametrize("kwargs", [
        dict(write_allocate=False),
        dict(timesteps=4),
    ])
    def test_stencil_options_match_per_row(self, small_stencil_dataset, kwargs):
        data = small_stencil_dataset
        model = StencilAnalyticalModel(**kwargs)
        expected = _per_row_reference(model, data.X, data.feature_names)
        np.testing.assert_array_equal(
            model.predict_rows(data.X, data.feature_names), expected)

    def test_predict_goes_through_vectorized_path(self, small_fmm_dataset):
        data = small_fmm_dataset
        model = FmmAnalyticalModel()
        np.testing.assert_array_equal(
            model.predict(data.X, data.feature_names),
            model.predict_rows(data.X, data.feature_names))

    def test_invalid_rows_raise_like_scalar_path(self):
        fmm = FmmAnalyticalModel()
        names = ["threads", "n_particles", "particles_per_leaf", "order"]
        with pytest.raises(ValueError, match="particles_per_leaf"):
            fmm.predict(np.array([[1.0, 1000.0, 0.0, 4.0]]), names)
        stencil = StencilAnalyticalModel()
        with pytest.raises(ValueError, match="I must be >= 1"):
            stencil.predict(np.array([[0.0, 16.0, 16.0]]), ["I", "J", "K"])
        with pytest.raises(ValueError, match="bi must be >= 0"):
            stencil.predict(np.array([[16.0, 16.0, 16.0, -1.0, 0.0, 0.0]]),
                            ["I", "J", "K", "bi", "bj", "bk"])

    def test_default_predict_rows_is_per_row_loop(self, small_fmm_dataset):
        data = small_fmm_dataset
        model = FmmAnalyticalModel()
        fallback = AnalyticalModel.predict_rows(model, data.X, data.feature_names)
        np.testing.assert_array_equal(
            fallback, model.predict_rows(data.X, data.feature_names))


class TestAnalyticalPredictionCache:
    def test_matches_uncached_predictions(self, small_fmm_dataset):
        data = small_fmm_dataset
        model = FmmAnalyticalModel()
        cache = AnalyticalPredictionCache(model, data.feature_names)
        np.testing.assert_array_equal(
            cache.predict(data.X), model.predict(data.X, data.feature_names))

    def test_warm_then_all_hits(self, small_fmm_dataset):
        data = small_fmm_dataset
        cache = AnalyticalPredictionCache(FmmAnalyticalModel(), data.feature_names)
        cache.warm(data.X)
        misses_after_warm = cache.misses
        assert misses_after_warm == data.n_samples
        # Arbitrary row subsets afterwards never re-evaluate the model.
        cache.predict(data.X[10:40])
        cache.predict(data.X[::3])
        assert cache.misses == misses_after_warm
        assert cache.hits == 30 + len(data.X[::3])

    def test_incremental_misses_only_for_new_rows(self, small_fmm_dataset):
        data = small_fmm_dataset
        cache = AnalyticalPredictionCache(FmmAnalyticalModel(), data.feature_names)
        cache.predict(data.X[:20])
        assert (cache.misses, cache.hits) == (20, 0)
        cache.predict(data.X[10:30])
        assert (cache.misses, cache.hits) == (30, 10)

    def test_len_and_clear(self, small_fmm_dataset):
        data = small_fmm_dataset
        cache = AnalyticalPredictionCache(FmmAnalyticalModel(), data.feature_names)
        cache.warm(data.X[:15])
        assert len(cache) == 15
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_column_count_mismatch_rejected(self, small_fmm_dataset):
        data = small_fmm_dataset
        cache = AnalyticalPredictionCache(FmmAnalyticalModel(), data.feature_names)
        with pytest.raises(ValueError, match="columns"):
            cache.predict(data.X[:, :2])

    def test_requires_analytical_model(self):
        with pytest.raises(TypeError):
            AnalyticalPredictionCache(object(), ["a"])

    def test_requires_a_feature_name(self):
        with pytest.raises(ValueError, match="feature name"):
            AnalyticalPredictionCache(FmmAnalyticalModel(), [])

    def test_signed_zeros_are_distinct_keys_and_state_round_trips(self):
        class SignModel(AnalyticalModel):
            """Predicts each row's sign-aware sum, so -0.0 and 0.0 differ."""

            def config_from_features(self, row, feature_names):
                return row

            def predict_config(self, config):
                return float(np.copysign(1.0, config).sum())

        cache = AnalyticalPredictionCache(SignModel(), ["a", "b"])
        X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(cache.predict(X), [2.0, 0.0, 0.0, 2.0])
        assert len(cache) == 3
        assert (cache.misses, cache.hits) == (4, 0)
        np.testing.assert_array_equal(cache.predict(X[::-1]), [2.0, 0.0, 0.0, 2.0])
        assert (cache.misses, cache.hits) == (4, 4)
        rows, values = cache.state()
        assert rows.tobytes() == X[:3].tobytes()
        np.testing.assert_array_equal(values, [2.0, 0.0, 0.0])
        rebuilt = AnalyticalPredictionCache(SignModel(), ["a", "b"]).load_rows(rows, values)
        restored_rows, restored_values = rebuilt.state()
        assert restored_rows.tobytes() == rows.tobytes()
        np.testing.assert_array_equal(restored_values, values)
        np.testing.assert_array_equal(rebuilt.predict(X), cache.predict(X))
        assert rebuilt.misses == 0


class TestHybridCacheIntegration:
    def test_hybrid_uses_cache_and_matches_uncached(self, small_stencil_dataset):
        from repro.core.hybrid import HybridPerformanceModel
        from repro.ml import ExtraTreesRegressor

        data = small_stencil_dataset
        train, test = data.train_test_indices(train_fraction=0.3, random_state=0)
        analytical = StencilAnalyticalModel()
        cache = AnalyticalPredictionCache(analytical, data.feature_names)

        def build(cache_arg):
            return HybridPerformanceModel(
                analytical_model=analytical,
                feature_names=data.feature_names,
                ml_model=ExtraTreesRegressor(n_estimators=5, random_state=0),
                analytical_cache=cache_arg,
                random_state=0,
            ).fit(data.X[train], data.y[train])

        cached = build(cache).predict(data.X[test])
        uncached = build(None).predict(data.X[test])
        np.testing.assert_array_equal(cached, uncached)
        assert cache.hits + cache.misses > 0

    def test_hybrid_rejects_cache_with_different_layout(self, small_stencil_dataset):
        from repro.core.hybrid import HybridPerformanceModel

        data = small_stencil_dataset
        analytical = StencilAnalyticalModel()
        cache = AnalyticalPredictionCache(
            analytical, list(reversed(data.feature_names)))
        model = HybridPerformanceModel(
            analytical_model=analytical,
            feature_names=data.feature_names,
            analytical_cache=cache,
            random_state=0,
        )
        with pytest.raises(ValueError, match="feature layout"):
            model.fit(data.X[:20], data.y[:20])

    def test_hybrid_rejects_foreign_cache(self, small_stencil_dataset):
        from repro.core.hybrid import HybridPerformanceModel

        data = small_stencil_dataset
        cache = AnalyticalPredictionCache(
            StencilAnalyticalModel(timesteps=2), data.feature_names)
        model = HybridPerformanceModel(
            analytical_model=StencilAnalyticalModel(),
            feature_names=data.feature_names,
            analytical_cache=cache,
            random_state=0,
        )
        with pytest.raises(ValueError, match="different analytical model"):
            model.fit(data.X[:20], data.y[:20])

    def test_learning_curve_warms_shared_cache(self, small_stencil_dataset):
        from repro.core.evaluation import evaluate_learning_curve
        from repro.core.hybrid import HybridPerformanceModel
        from repro.ml import ExtraTreesRegressor

        data = small_stencil_dataset
        analytical = StencilAnalyticalModel()
        cache = AnalyticalPredictionCache(analytical, data.feature_names)

        def factory(seed):
            return HybridPerformanceModel(
                analytical_model=analytical,
                feature_names=data.feature_names,
                ml_model=ExtraTreesRegressor(n_estimators=3, random_state=seed),
                analytical_cache=cache,
                random_state=seed,
            )

        evaluate_learning_curve(factory, data, fractions=[0.05, 0.1], n_repeats=3,
                                analytical_cache=cache)
        # The warm-up evaluates each dataset row exactly once; every
        # (fraction, repeat) fit/predict afterwards is served from the cache.
        assert cache.misses == data.n_samples
        assert cache.hits >= 2 * 3 * data.n_samples  # >= cells x rows-per-cell
