"""Tests for the serving tier (`repro.serving`): model persistence + server.

Covers the packed-forest arena round trip, the pickle-free model blob
format (encode/decode bit-identity for both factory kinds), plan
publishing (including non-servable series being skipped, not fatal),
the ``models/`` key family of the store, and the HTTP model server:
bit-identical ``/predict``, ``/recommend`` argmin, failure statuses
(400/404/503), integrity accounting for corrupt blobs, keep-alive
replies without a delayed-ACK stall, and value-preserving micro-batching
under concurrency, with leadership handed off between passes.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DatasetStore
from repro.experiments.plan import build_factory, experiment_plan
from repro.experiments.runner import ExperimentSettings
from repro.experiments.scheduler import resolve_data, run_plan
from repro.ml._packed import PackedForest
from repro.ml.forest import ExtraTreesRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.preprocessing import StandardScaler
from repro.obs.http import ReproHTTPServer, sign_request
from repro.serving import (
    MicroBatcher,
    ModelNotServableError,
    ModelServer,
    PackedRegressor,
    decode_model,
    encode_model,
    publish_plan_models,
)

SETTINGS = ExperimentSettings.quick()


@pytest.fixture(scope="module")
def published():
    """A quick figure5 plan published into a fresh in-memory store."""
    plan = experiment_plan("figure5", SETTINGS)
    store = DatasetStore("memory://")
    dataset, caches = resolve_data(plan.dataset, plan.cache_keys(), store)
    outcome = publish_plan_models(plan, dataset, caches, store)
    return plan, store, dataset, caches, outcome


def _refit(plan, dataset, caches, label):
    spec = next(s for s in plan.series if s.label == label)
    factory = build_factory(spec.factory, dataset,
                            caches.get(spec.factory.analytical))
    model = factory(plan.random_state)
    model.fit(dataset.X, dataset.y)
    return model


def _post(url, body, timeout=10):
    req = urllib.request.Request(url, data=json.dumps(body).encode(),
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


class TestPackedForestState:
    def test_state_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(80, 3))
        y = X[:, 0] * 3.0 + rng.normal(scale=0.1, size=80)
        packed = ExtraTreesRegressor(n_estimators=5, random_state=0).fit(X, y).packed_
        rebuilt = PackedForest.from_state(packed.state())
        assert rebuilt.n_trees == packed.n_trees
        assert np.array_equal(rebuilt.predict(X), packed.predict(X))
        assert np.array_equal(rebuilt.predict_std(X), packed.predict_std(X))

    def test_missing_array_is_rejected(self):
        state = {"roots": np.array([0])}
        with pytest.raises(ValueError, match="missing array"):
            PackedForest.from_state(state)

    def test_out_of_range_children_are_rejected(self):
        n = 3
        state = {
            "roots": np.array([0]),
            "feature": np.array([0, -1, -1]),
            "threshold": np.zeros(n),
            "value": np.zeros(n),
            "left": np.array([1, -1, -1]),
            "right": np.array([99, -1, -1]),  # beyond the arena
        }
        with pytest.raises(ValueError, match="out-of-range"):
            PackedForest.from_state(state)

    # Each arena is a set of trees apart from the one defect its id names.
    @pytest.mark.parametrize("roots, feature, left, right", [
        pytest.param([0], [0, 0], [1, 0], [1, 0], id="two-node-cycle"),
        pytest.param([0], [0, -1], [1, -1], [-1, -1], id="internal-node-missing-child"),
        pytest.param([0], [-1, -1, -1], [1, -1, -1], [2, -1, -1], id="leaf-with-children"),
        pytest.param([0, 2], [0, -1, -1], [1, -1, -1], [2, -1, -1],
                     id="child-in-next-tree"),
        pytest.param([0], [0, -1, 0, -1, -1], [2, -1, 1, -1, -1], [3, -1, 4, -1, -1],
                     id="child-before-parent"),
        pytest.param([1], [-1, -1], [-1, -1], [-1, -1], id="roots-not-starting-at-0"),
        pytest.param([0, 2, 1], [-1, -1, -1], [-1, -1, -1], [-1, -1, -1],
                     id="roots-not-increasing"),
        pytest.param([0], [-2, -1, -1], [1, -1, -1], [2, -1, -1], id="negative-feature"),
        pytest.param([], [-1], [-1], [-1], id="no-trees"),
    ])
    def test_malformed_arena_is_rejected(self, roots, feature, left, right):
        n = len(feature)
        state = {"roots": np.array(roots), "feature": np.array(feature),
                 "threshold": np.zeros(n), "value": np.arange(n, dtype=float),
                 "left": np.array(left), "right": np.array(right)}
        with pytest.raises(ValueError, match="packed-forest"):
            PackedForest.from_state(state)

    @pytest.fixture(scope="class")
    def forest_blob_arrays(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(40, 3))
        y = X[:, 0] - 2.0 * X[:, 2] + rng.normal(scale=0.1, size=40)
        model = ExtraTreesRegressor(n_estimators=3, random_state=0)
        blob = encode_model(Pipeline(steps=[("model", model)]).fit(X, y))
        with np.load(io.BytesIO(blob)) as data:
            return X, dict(data)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_model_blob_raises_or_predicts(self, forest_blob_arrays, data):
        X, arrays = forest_blob_arrays
        arrays = {name: array.copy() for name, array in arrays.items()}
        n_nodes = arrays["forest_feature"].size
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            name = data.draw(st.sampled_from(
                sorted(k for k in arrays if k.startswith("forest_"))), label="array")
            array = arrays[name]
            i = data.draw(st.integers(0, array.size - 1), label="index")
            if array.dtype.kind == "f":
                array[i] = data.draw(st.floats(), label="float")
            else:
                array[i] = data.draw(st.integers(-3, n_nodes + 3), label="int")
        blob = io.BytesIO()
        np.savez(blob, **arrays)
        try:
            served = decode_model(blob.getvalue())
        except ValueError:
            return
        assert served.predict_rows(X).shape == (X.shape[0],)

    def test_shape_mismatch_is_rejected(self):
        state = {
            "roots": np.array([0]),
            "feature": np.array([-1, -1]),
            "threshold": np.zeros(1),  # wrong length
            "value": np.zeros(2),
            "left": np.full(2, -1),
            "right": np.full(2, -1),
        }
        with pytest.raises(ValueError, match="shape"):
            PackedForest.from_state(state)


class TestModelBlobFormat:
    def test_pipeline_round_trip_is_bit_identical(self, published):
        plan, store, dataset, caches, _ = published
        original = _refit(plan, dataset, caches, "extra_trees")
        served = decode_model(encode_model(original))
        assert served.kind == "ml_pipeline"
        assert np.array_equal(served.predict_rows(dataset.X),
                              original.predict(dataset.X))

    def test_hybrid_round_trip_is_bit_identical(self, published):
        plan, store, dataset, caches, _ = published
        original = _refit(plan, dataset, caches, "hybrid")
        served = decode_model(encode_model(original, analytical_key="stencil"))
        assert served.kind == "hybrid"
        assert served.feature_names == tuple(dataset.feature_names)
        assert np.array_equal(served.predict_rows(dataset.X),
                              original.predict(dataset.X))

    def test_decoded_model_is_prediction_only(self, published):
        plan, store, dataset, caches, _ = published
        served = decode_model(store.model_bytes(plan.fingerprint, "extra_trees"))
        regressor = served.model.steps_[-1][1]
        assert isinstance(regressor, PackedRegressor)
        with pytest.raises(TypeError, match="prediction-only"):
            regressor.fit(dataset.X, dataset.y)

    def test_hybrid_without_analytical_key_is_rejected(self, published):
        plan, store, dataset, caches, _ = published
        original = _refit(plan, dataset, caches, "hybrid")
        with pytest.raises(ValueError, match="analytical_key"):
            encode_model(original)

    def test_mismatched_analytical_key_is_rejected(self, published):
        plan, store, dataset, caches, _ = published
        original = _refit(plan, dataset, caches, "hybrid")
        with pytest.raises(ValueError, match="rebuilds"):
            encode_model(original, analytical_key="fmm")

    @pytest.mark.parametrize("label, analytical_key", [
        ("extra_trees", None), ("hybrid", "stencil")])
    def test_split_feature_outside_model_width_is_rejected(self, published, label,
                                                           analytical_key):
        plan, store, dataset, caches, _ = published
        blob = encode_model(_refit(plan, dataset, caches, label),
                            analytical_key=analytical_key)
        # A hybrid's forest also splits on the stacked analytical column.
        width = dataset.X.shape[1] + (analytical_key is not None)
        with np.load(io.BytesIO(blob)) as data:
            arrays = dict(data)
        feature = arrays["forest_feature"]
        assert feature.max() < width
        feature[np.argmax(feature != -1)] = width
        corrupted = io.BytesIO()
        np.savez(corrupted, **arrays)
        with pytest.raises(ValueError, match="feature"):
            decode_model(corrupted.getvalue())

    def test_knn_pipeline_is_not_servable(self):
        from repro.ml.neighbors import KNeighborsRegressor

        rng = np.random.default_rng(1)
        X = rng.uniform(size=(40, 2))
        y = X.sum(axis=1)
        pipe = Pipeline(steps=[("scale", StandardScaler()),
                               ("model", KNeighborsRegressor())]).fit(X, y)
        with pytest.raises(ModelNotServableError, match="packed-arena"):
            encode_model(pipe)

    @pytest.fixture(scope="class")
    def unsplit_column(self):
        """Rows whose last column is constant, so no tree ever splits on it."""
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(60, 3))
        X[:, 2] = 1.0
        return X, 2.0 * X[:, 0] + X[:, 1]

    def test_single_tree_pipeline_round_trip_is_bit_identical(self, unsplit_column):
        from repro.ml.tree import DecisionTreeRegressor

        X, y = unsplit_column
        pipe = Pipeline(steps=[("model", DecisionTreeRegressor(random_state=0))]).fit(X, y)
        served = decode_model(encode_model(pipe))
        assert served.kind == "ml_pipeline" and served.forest.n_trees == 1
        assert served.n_features_in == 3
        assert np.array_equal(served.predict_rows(X), pipe.predict(X))

    def test_re_encoded_decoded_pipeline_keeps_its_width(self, unsplit_column):
        X, y = unsplit_column
        pipe = Pipeline(steps=[("scale", StandardScaler()),
                               ("model", ExtraTreesRegressor(n_estimators=3,
                                                             random_state=0))]).fit(X, y)
        served = decode_model(encode_model(pipe))
        assert served.forest.feature.max() < 2
        again = decode_model(encode_model(served.model))
        assert again.n_features_in == 3
        assert np.array_equal(again.predict_rows(X), pipe.predict(X))

    def test_transformer_other_than_a_scaler_is_not_servable(self, unsplit_column):
        from repro.ml.base import BaseEstimator, TransformerMixin

        class Doubler(BaseEstimator, TransformerMixin):
            def fit(self, X, y=None):
                return self

            def transform(self, X):
                return 2.0 * np.asarray(X, dtype=float)

        X, y = unsplit_column
        pipe = Pipeline(steps=[("double", Doubler()),
                               ("model", ExtraTreesRegressor(n_estimators=2,
                                                             random_state=0))]).fit(X, y)
        with pytest.raises(ModelNotServableError, match="Doubler is not servable"):
            encode_model(pipe)

    def test_two_scaler_steps_are_not_servable(self, unsplit_column):
        X, y = unsplit_column
        pipe = Pipeline(steps=[("a", StandardScaler()), ("b", StandardScaler()),
                               ("model", ExtraTreesRegressor(n_estimators=2,
                                                             random_state=0))]).fit(X, y)
        with pytest.raises(ModelNotServableError, match="multiple scaler steps"):
            encode_model(pipe)

    def test_bare_forest_is_not_a_servable_top_level_model(self, unsplit_column):
        X, y = unsplit_column
        forest = ExtraTreesRegressor(n_estimators=2, random_state=0).fit(X, y)
        with pytest.raises(ModelNotServableError, match="cannot encode ExtraTreesRegressor"):
            encode_model(forest)

    @pytest.mark.parametrize("rows, message", [
        (np.ones(3), "rows must be 2-D"),
        (np.ones((2, 4)), "rows have 4 features, but the model expects 3"),
    ], ids=["flat", "too-wide"])
    def test_served_rows_are_checked(self, unsplit_column, rows, message):
        X, y = unsplit_column
        pipe = Pipeline(steps=[("model", ExtraTreesRegressor(n_estimators=2,
                                                             random_state=0))]).fit(X, y)
        with pytest.raises(ValueError, match=message):
            decode_model(encode_model(pipe)).predict_rows(rows)

    def test_packed_regressor_checks_the_width(self, unsplit_column):
        X, y = unsplit_column
        forest = ExtraTreesRegressor(n_estimators=3, random_state=0).fit(X, y)
        regressor = PackedRegressor(forest=forest.packed_, n_features_in=3)
        np.testing.assert_array_equal(regressor.predict(X), forest.predict(X))
        with pytest.raises(ValueError, match="published model expects 3"):
            regressor.predict(X[:, :2])

    @staticmethod
    def _rewritten(blob, **changes):
        with np.load(io.BytesIO(blob)) as data:
            arrays = dict(data)
        arrays.update(changes)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    def test_unknown_model_kind_is_rejected(self, published):
        plan, store, *_ = published
        blob = self._rewritten(store.model_bytes(plan.fingerprint, "extra_trees"),
                               kind=np.array("boosted"))
        with pytest.raises(ValueError, match="unknown model kind 'boosted'"):
            decode_model(blob)

    def test_hybrid_feature_names_must_match_the_width(self, published):
        plan, store, dataset, *_ = published
        blob = store.model_bytes(plan.fingerprint, "hybrid")
        names = np.array([str(n) for n in dataset.feature_names[:-1]])
        with pytest.raises(ValueError, match="hybrid blob names"):
            decode_model(self._rewritten(blob, feature_names=names))

    def test_scaler_state_must_match_the_width(self, published):
        plan, store, *_ = published
        blob = store.model_bytes(plan.fingerprint, "extra_trees")
        with np.load(io.BytesIO(blob)) as data:
            mean = data["scaler_mean"]
        with pytest.raises(ValueError, match="scaler state has shape"):
            decode_model(self._rewritten(blob, scaler_mean=mean[:-1]))

    def test_unknown_format_version_is_rejected(self, published):
        plan, store, *_ = published
        blob = store.model_bytes(plan.fingerprint, "hybrid")
        import io

        with np.load(io.BytesIO(blob)) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["format"] = np.array(99)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        with pytest.raises(ValueError, match="format version 99"):
            decode_model(buf.getvalue())

    def test_unbalanced_array_header_is_value_error(self, published):
        """One flipped bit turns an array header's ``)`` into ``(``, which
        numpy's header parser fails with ``tokenize.TokenError``; like
        every malformed blob, it must decode to a ``ValueError``."""
        plan, store, *_ = published
        blob = store.model_bytes(plan.fingerprint, "extra_trees")
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        name = next(name for name, member in members.items()
                    if b",)" in member[:member.index(b"\n")])
        header_end = members[name].index(b"\n")
        members[name] = (members[name][:header_end].replace(b",)", b",(", 1)
                         + members[name][header_end:])
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as archive:
            for member_name, member in members.items():
                archive.writestr(member_name, member)
        with pytest.raises(ValueError, match="malformed model blob"):
            decode_model(buf.getvalue())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_damaged_published_blob_raises_or_predicts(self, published, data):
        """Truncate, bit-flip or drop members of a real published blob:
        decoding either raises ``ValueError`` or yields a model that
        predicts — never another exception type."""
        plan, store, dataset, *_ = published
        label = data.draw(st.sampled_from(["hybrid", "extra_trees"]), label="series")
        blob = store.model_bytes(plan.fingerprint, label)
        damage = data.draw(st.sampled_from(["truncate", "flip", "drop"]),
                           label="damage")
        if damage == "truncate":
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
        elif damage == "flip":
            raw = bytearray(blob)
            for _ in range(data.draw(st.integers(1, 3), label="flips")):
                i = data.draw(st.integers(0, len(raw) - 1), label="byte")
                raw[i] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            blob = bytes(raw)
        else:
            with zipfile.ZipFile(io.BytesIO(blob)) as archive:
                members = {name: archive.read(name) for name in archive.namelist()}
            dropped = data.draw(st.sets(st.sampled_from(sorted(members)),
                                        min_size=1), label="dropped")
            buf = io.BytesIO()
            with zipfile.ZipFile(buf, "w") as archive:
                for name, member in members.items():
                    if name not in dropped:
                        archive.writestr(name, member)
            blob = buf.getvalue()
        try:
            served = decode_model(blob)
        except ValueError:
            return
        assert served.predict_rows(dataset.X[:4]).shape == (4,)


class TestPublishing:
    def test_publish_writes_every_servable_series(self, published):
        plan, store, _, _, outcome = published
        assert sorted(outcome["published"]) == ["extra_trees", "hybrid"]
        assert outcome["skipped"] == {}
        for series in outcome["published"]:
            assert store.has_model(plan.fingerprint, series)
        listed = store.list_models(plan.fingerprint)
        assert sorted(series for series, _ in listed) == ["extra_trees", "hybrid"]

    def test_published_predictions_match_refit(self, published):
        plan, store, dataset, caches, _ = published
        for label in ("extra_trees", "hybrid"):
            served = decode_model(store.model_bytes(plan.fingerprint, label))
            original = _refit(plan, dataset, caches, label)
            assert np.array_equal(served.predict_rows(dataset.X[:64]),
                                  original.predict(dataset.X[:64]))

    def test_non_servable_series_is_skipped_with_reason(self):
        plan = experiment_plan("ablation_ml_backend", SETTINGS)
        labels = [s.label for s in plan.series]
        assert "hybrid_knn" in labels and "hybrid_bagged_tree" in labels
        store = DatasetStore("memory://")
        dataset, caches = resolve_data(plan.dataset, plan.cache_keys(), store)
        outcome = publish_plan_models(plan, dataset, caches, store)
        assert "hybrid_knn" in outcome["skipped"]
        assert "hybrid_bagged_tree" in outcome["skipped"]
        assert "hybrid_extra_trees" in outcome["published"]
        assert not store.has_model(plan.fingerprint, "hybrid_knn")

    def test_model_key_validates_its_parts(self):
        assert (DatasetStore.model_key("abc123", "hybrid")
                == "models/hybrid-abc123.npz")
        with pytest.raises(ValueError):
            DatasetStore.model_key("has-dash", "hybrid")
        with pytest.raises(ValueError):
            DatasetStore.model_key("abc123", "bad/series")
        with pytest.raises(ValueError):
            DatasetStore.model_key("", "hybrid")

    def test_run_plan_publish_models_requires_store(self):
        plan = experiment_plan("figure5", SETTINGS)
        with pytest.raises(ValueError, match="store"):
            run_plan(plan, publish_models=True)


class TestModelServer:
    def test_predict_is_bit_identical_to_in_process_model(self, published):
        plan, store, dataset, caches, _ = published
        rows = dataset.X[:16]
        with ModelServer(store) as server:
            for label in ("extra_trees", "hybrid"):
                original = _refit(plan, dataset, caches, label)
                out = _post(server.url + "predict",
                            {"plan": plan.fingerprint, "series": label,
                             "rows": rows.tolist()})
                served = np.array(out["predictions"])
                assert np.array_equal(served, original.predict(rows)), label

    def test_recommend_answers_the_argmin(self, published):
        plan, store, dataset, *_ = published
        rows = dataset.X[:24]
        with ModelServer(store) as server:
            out = _post(server.url + "recommend",
                        {"plan": plan.fingerprint, "series": "hybrid",
                         "rows": rows.tolist()})
            predictions = np.array(out["predictions"])
            assert out["index"] == int(np.argmin(predictions))
            assert out["row"] == rows[out["index"]].tolist()
            assert out["predicted"] == predictions[out["index"]]

    def test_health_stats_and_models_endpoints(self, published):
        plan, store, dataset, *_ = published
        with ModelServer(store) as server:
            assert _get(server.url + "healthz")["status"] == "ok"
            _post(server.url + "predict",
                  {"plan": plan.fingerprint, "series": "hybrid",
                   "rows": dataset.X[:4].tolist()})
            stats = _get(server.url + "stats")
            assert stats["predictions"] == 4
            assert stats["model_loads"] == 1
            models = _get(server.url + "models")
            assert f"{plan.fingerprint}/hybrid" in models["loaded"]
            available = {(m["plan"], m["series"]) for m in models["available"]}
            assert (plan.fingerprint, "hybrid") in available

    def test_unknown_model_is_404(self, published):
        _, store, dataset, *_ = published
        with ModelServer(store) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server.url + "predict",
                      {"plan": "feedc0de", "series": "hybrid",
                       "rows": dataset.X[:2].tolist()})
            assert err.value.code == 404

    def test_malformed_requests_are_400(self, published):
        plan, store, dataset, *_ = published
        ok = {"plan": plan.fingerprint, "series": "hybrid",
              "rows": dataset.X[:2].tolist()}
        with ModelServer(store) as server:
            for body in (
                {**ok, "rows": [[1.0, 2.0]]},          # wrong width
                {**ok, "rows": []},                     # empty
                {**ok, "rows": [["a", "b", "c"]]},      # non-numeric
                {"series": "hybrid", "rows": ok["rows"]},  # missing plan
            ):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _post(server.url + "predict", body)
                assert err.value.code == 400, body
            req = urllib.request.Request(
                server.url + "predict", data=b"{not json",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "nosuch")
            assert err.value.code == 404

    def test_corrupt_blob_is_503_and_counted(self):
        plan = experiment_plan("figure5", SETTINGS)
        store = DatasetStore("memory://")
        dataset, caches = resolve_data(plan.dataset, plan.cache_keys(), store)
        publish_plan_models(plan, dataset, caches, store)
        key = store.model_key(plan.fingerprint, "hybrid")
        raw = bytearray(store.backend._read(key))
        raw[len(raw) // 2] ^= 0xFF
        store.backend._write(key, bytes(raw))
        with ModelServer(store) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server.url + "predict",
                      {"plan": plan.fingerprint, "series": "hybrid",
                       "rows": dataset.X[:2].tolist()})
            assert err.value.code == 503
            stats = _get(server.url + "stats")
            assert stats["integrity_failures"] == 1
            assert stats["store_integrity_failures"] == 1
        # The corrupt blob was discarded: the next publish repairs the key.
        assert not store.backend.exists(key)

    def test_undecodable_blob_is_503(self):
        """A blob that passes its checksum but is no model archive (a plain
        ``.npy`` array under the model's key) answers the documented 503."""
        plan = experiment_plan("figure5", SETTINGS)
        store = DatasetStore("memory://")
        npy = io.BytesIO()
        np.save(npy, np.arange(3.0))
        store.backend.write(store.model_key(plan.fingerprint, "hybrid"),
                            npy.getvalue())
        with ModelServer(store) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server.url + "predict",
                      {"plan": plan.fingerprint, "series": "hybrid",
                       "rows": [[1.0, 2.0, 3.0]]})
            assert err.value.code == 503
            assert "cannot be decoded" in json.loads(err.value.read())["error"]

    def test_concurrent_requests_batch_and_preserve_values(self, published):
        plan, store, dataset, caches, _ = published
        original = _refit(plan, dataset, caches, "hybrid")
        chunks = [dataset.X[i * 8:(i + 1) * 8] for i in range(6)]
        expected = [original.predict(chunk) for chunk in chunks]
        results: dict[int, np.ndarray] = {}
        errors: list[Exception] = []
        with ModelServer(store) as server:
            def worker(i):
                try:
                    out = _post(server.url + "predict",
                                {"plan": plan.fingerprint, "series": "hybrid",
                                 "rows": chunks[i].tolist()})
                    results[i] = np.array(out["predictions"])
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(chunks))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            stats = _get(server.url + "stats")
        assert errors == []
        for i, chunk_expected in enumerate(expected):
            assert np.array_equal(results[i], chunk_expected), i
        assert stats["batched_rows"] == sum(len(c) for c in chunks)
        assert stats["batches"] >= 1


class TestKeepAlive:
    """One client connection carrying many requests, as load balancers and
    SDK clients use it.  ``urllib`` opens a connection per request, which
    is still in TCP quick-ACK mode and so never shows a delayed-ACK stall.
    """

    def test_sequential_predicts_on_one_connection_do_not_stall(self, published):
        plan, store, dataset, *_ = published
        key = b"keep-alive-test-key"
        body = json.dumps({"plan": plan.fingerprint, "series": "hybrid",
                           "rows": dataset.X[:1].tolist()}).encode()
        headers = {"Content-Type": "application/json",
                   "Authorization": sign_request(key, "POST", "/predict", body)}
        with ModelServer(store, auth=key) as server:
            server.load_model(plan.fingerprint, "hybrid")
            conn = http.client.HTTPConnection(*server.server_address[:2],
                                              timeout=10)
            try:
                start = time.perf_counter()
                for _ in range(40):
                    conn.request("POST", "/predict", body=body, headers=headers)
                    response = conn.getresponse()
                    reply = json.loads(response.read())
                    assert response.status == 200, reply
                elapsed = time.perf_counter() - start
            finally:
                conn.close()
        # A delayed-ACK stall costs about 40 ms per request after the first.
        assert elapsed < 0.8, f"40 keep-alive requests took {elapsed:.2f} s"

    def test_accepted_connections_disable_nagle(self):
        class NodelayProbe(ReproHTTPServer):
            def handle(self, request, method, path, query, body):
                option = request.connection.getsockopt(socket.IPPROTO_TCP,
                                                       socket.TCP_NODELAY)
                request.send_json(200, {"nodelay": bool(option)})

        with NodelayProbe() as server:
            assert _get(server.url + "probe") == {"nodelay": True}


class TestMicroBatcher:
    class _CountingModel:
        """Stand-in model recording the batch shapes it was asked for."""

        def __init__(self):
            self.calls: list[int] = []
            self.lock = threading.Lock()

        def predict_rows(self, rows):
            with self.lock:
                self.calls.append(len(rows))
            return np.asarray(rows)[:, 0] * 2.0

    def test_single_caller_runs_immediately(self):
        batcher = MicroBatcher()
        model = self._CountingModel()
        rows = np.arange(6.0).reshape(3, 2)
        out = batcher.predict("k", model, rows)
        assert np.array_equal(out, rows[:, 0] * 2.0)
        assert model.calls == [3]
        assert batcher.stats["batches"] == 1

    def test_concurrent_callers_coalesce_without_changing_values(self):
        batcher = MicroBatcher()
        model = self._CountingModel()
        barrier = threading.Barrier(8)
        results: dict[int, np.ndarray] = {}

        def worker(i):
            rows = np.full((4, 2), float(i))
            barrier.wait()
            results[i] = batcher.predict("k", model, rows)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        for i in range(8):
            assert np.array_equal(results[i], np.full(4, 2.0 * i)), i
        assert sum(model.calls) == 32
        assert batcher.stats["batched_rows"] == 32

    def test_model_error_propagates_to_every_caller(self):
        class Exploding:
            def predict_rows(self, rows):
                raise ValueError("boom")

        batcher = MicroBatcher()
        with pytest.raises(ValueError, match="boom"):
            batcher.predict("k", Exploding(), np.zeros((2, 2)))

    def test_caller_queued_behind_a_pass_is_handed_the_next_one(self, monkeypatch):
        """A caller that queues after the leader drained is served as soon as
        the leader releases, not after the dead-leader poll interval."""
        monkeypatch.setattr("repro.serving.server.LEADER_POLL_S", 60.0)
        entered, gate = threading.Event(), threading.Event()

        class Gated:
            def predict_rows(self, rows):
                if not entered.is_set():
                    entered.set()
                    gate.wait(30)
                return np.asarray(rows)[:, 0] * 2.0

        batcher, model = MicroBatcher(), Gated()
        results: dict[str, np.ndarray] = {}

        def call(name, value):
            results[name] = batcher.predict("k", model, np.full((2, 2), value))

        leader = threading.Thread(target=call, args=("leader", 1.0), daemon=True)
        follower = threading.Thread(target=call, args=("follower", 2.0),
                                    daemon=True)
        leader.start()
        assert entered.wait(10)  # the leader drained the queue and is mid-pass
        follower.start()
        deadline = time.monotonic() + 10
        while not batcher._queues.get("k"):
            assert time.monotonic() < deadline, "the follower never queued"
            time.sleep(0.001)
        time.sleep(0.1)  # let it find the leadership taken and wait
        gate.set()
        released = time.monotonic()
        leader.join(timeout=10)
        follower.join(timeout=5)
        assert not leader.is_alive()
        assert not follower.is_alive(), "the follower waited out the poll"
        assert time.monotonic() - released < 5
        assert np.array_equal(results["follower"], np.full(2, 4.0))

    def test_no_caller_is_stranded_under_contention(self, monkeypatch):
        """With the poll interval out of reach, a lost hand-off hangs a caller."""
        monkeypatch.setattr("repro.serving.server.LEADER_POLL_S", 60.0)
        batcher, model = MicroBatcher(), self._CountingModel()
        n_threads, n_calls = 16, 40
        wrong: list[int] = []

        def worker(i):
            for j in range(n_calls):
                value = float(i * n_calls + j)
                out = batcher.predict("k", model, np.full((1, 2), value))
                if out.tolist() != [2.0 * value]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a caller was stranded"
        assert wrong == []
        assert batcher.stats["batched_rows"] == n_threads * n_calls
