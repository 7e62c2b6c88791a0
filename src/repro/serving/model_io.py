"""Fitted-model persistence: the serving tier's ``models/`` blob format.

A fitted :class:`~repro.core.hybrid.HybridPerformanceModel` (or the
paper's standardize+regressor :class:`~repro.ml.pipeline.Pipeline`) is
fully determined by a handful of arrays: the packed tree arenas of its
ensemble (:meth:`~repro.ml._packed.PackedForest.state`), the scaler's
mean/scale vectors, and — for hybrids — the *registry key* of its
analytical model (analytical models are prediction-only and rebuild from
their key with zero fitted state, so the key is the entire serialization).
:func:`encode_model` writes exactly that as an ``.npz`` blob and
:func:`decode_model` rebuilds a model whose ``predict`` is bit-identical
to the original's — both sides predict through the same arena arrays.

Like the dataset store's config encoding, the format is deliberately
**pickle-free**: a model blob fetched from an untrusted object store can
rebuild only whitelisted estimator shapes, never execute code.

Not every estimator the experiment plans know is servable: k-NN keeps
its training set (no arena form) and bagged ensembles predict through a
sequential Python accumulation whose float ordering differs from the
packed descent.  Those series raise :class:`ModelNotServableError`;
:func:`publish_plan_models` skips them with a warning instead of failing
a run.
"""

from __future__ import annotations

import io
import logging
import tokenize
import zipfile
import zlib

import numpy as np

from repro.core.hybrid import HybridPerformanceModel
from repro.ml._packed import PackedForest
from repro.ml.base import BaseEstimator, RegressorMixin
from repro.ml.forest import BaseForestRegressor
from repro.ml.pipeline import Pipeline
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.validation import check_array, check_is_fitted

__all__ = [
    "MODEL_FORMAT_VERSION",
    "ModelNotServableError",
    "PackedRegressor",
    "ServedModel",
    "encode_model",
    "decode_model",
    "publish_plan_models",
]

logger = logging.getLogger(__name__)

#: Bump when the blob layout changes; decode rejects unknown versions.
MODEL_FORMAT_VERSION = 1


class ModelNotServableError(TypeError):
    """The fitted model has no packed-arena form the serving tier can publish."""


class PackedRegressor(BaseEstimator, RegressorMixin):
    """Prediction-only regressor over decoded :class:`PackedForest` arenas.

    The decode-side stand-in for whatever ensemble was fitted originally:
    forests and single trees all predict through their packed arenas, so
    replaying the same arenas reproduces their predictions bit for bit.
    It cannot be fitted — models are trained by the experiment pipeline
    and published, never trained in the serving tier.
    """

    def __init__(self, *, forest: PackedForest | None = None,
                 n_features_in: int | None = None) -> None:
        self.forest = forest
        self.n_features_in = n_features_in

    def fit(self, X, y=None):
        """Unsupported: decoded models are read-only serving artifacts."""
        raise TypeError(
            "PackedRegressor is prediction-only; publish a newly fitted model "
            "through repro.serving.encode_model instead")

    def _validate(self, X) -> np.ndarray:
        check_is_fitted(self, "forest")
        X = check_array(X)
        if self.n_features_in is not None and X.shape[1] != self.n_features_in:
            raise ValueError(
                f"X has {X.shape[1]} features, but the published model expects "
                f"{self.n_features_in}")
        return X

    def predict(self, X) -> np.ndarray:
        """Ensemble mean prediction through the packed arenas."""
        return self.forest.predict(self._validate(X))

    def predict_std(self, X) -> np.ndarray:
        """Per-sample standard deviation across the packed trees."""
        return self.forest.predict_std(self._validate(X))


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #
def _pack_estimator(estimator) -> PackedForest:
    """The packed-arena form of a fitted estimator, or :class:`ModelNotServableError`."""
    if isinstance(estimator, PackedRegressor):
        check_is_fitted(estimator, "forest")
        return estimator.forest
    if isinstance(estimator, BaseForestRegressor):
        check_is_fitted(estimator, "estimators_")
        return estimator.packed_
    if isinstance(estimator, DecisionTreeRegressor):
        check_is_fitted(estimator, "tree_")
        return PackedForest([estimator.tree_])
    raise ModelNotServableError(
        f"{type(estimator).__name__} has no packed-arena serving form "
        "(servable: forests, extra trees, single decision trees)")


def _scaler_state(scaler: StandardScaler | None) -> dict[str, np.ndarray]:
    if scaler is None:
        return {"has_scaler": np.array(0)}
    check_is_fitted(scaler, ["mean_", "scale_"])
    return {
        "has_scaler": np.array(1),
        "scaler_mean": np.asarray(scaler.mean_, dtype=np.float64),
        "scaler_scale": np.asarray(scaler.scale_, dtype=np.float64),
    }


def _forest_state(forest: PackedForest) -> dict[str, np.ndarray]:
    return {f"forest_{name}": array for name, array in forest.state().items()}


def encode_model(model, *, analytical_key: str | None = None) -> bytes:
    """Serialize a fitted model to the serving tier's ``.npz`` blob format.

    *model* is a fitted standardize+regressor :class:`Pipeline` or a
    fitted :class:`HybridPerformanceModel`.  Hybrids additionally need
    *analytical_key* — the :func:`repro.experiments.plan.build_analytical`
    registry key their analytical component rebuilds from (the factory
    specs carry it; a bare fitted model cannot name its own builder).

    Raises :class:`ModelNotServableError` when the underlying estimator
    has no packed-arena form (k-NN, bagged ensembles).
    """
    arrays: dict[str, np.ndarray]
    if isinstance(model, HybridPerformanceModel):
        check_is_fitted(model, "stacked_model_")
        if analytical_key is None:
            raise ValueError(
                "encoding a hybrid model requires analytical_key (the "
                "build_analytical registry key of its analytical component)")
        from repro.experiments.plan import build_analytical

        rebuilt = build_analytical(analytical_key)  # validates the key
        if type(rebuilt) is not type(model.analytical_model):
            raise ValueError(
                f"analytical_key {analytical_key!r} rebuilds "
                f"{type(rebuilt).__name__}, but the model holds "
                f"{type(model.analytical_model).__name__}")
        arrays = {
            "kind": np.array("hybrid"),
            "feature_names": np.array([str(n) for n in model.feature_names]),
            "n_features_in": np.array(int(model.n_features_in_)),
            "analytical": np.array(analytical_key),
            "aggregate": np.array(int(bool(model.aggregate_analytical))),
            "analytical_weight": np.array(float(model.analytical_weight)),
            "log_feature": np.array(int(bool(model.log_analytical_feature))),
            **_scaler_state(model.scaler_),
            **_forest_state(_pack_estimator(model.stacked_model_)),
        }
    elif isinstance(model, Pipeline):
        check_is_fitted(model, "steps_")
        scaler = None
        for _, step in model.steps_[:-1]:
            if not isinstance(step, StandardScaler):
                raise ModelNotServableError(
                    f"pipeline step {type(step).__name__} is not servable "
                    "(only StandardScaler transformers are supported)")
            if scaler is not None:
                raise ModelNotServableError(
                    "pipelines with multiple scaler steps are not servable")
            scaler = step
        final = model.steps_[-1][1]
        forest = _pack_estimator(final)
        n_features = getattr(final, "n_features_in_", None) or forest.feature.max() + 1
        arrays = {
            "kind": np.array("ml_pipeline"),
            "feature_names": np.array([], dtype=str),
            "n_features_in": np.array(int(n_features)),
            **_scaler_state(scaler),
            **_forest_state(forest),
        }
    else:
        raise ModelNotServableError(
            f"cannot encode {type(model).__name__}; servable top-level models: "
            "Pipeline, HybridPerformanceModel")

    buf = io.BytesIO()
    np.savez(buf, format=np.array(MODEL_FORMAT_VERSION), **arrays)
    return buf.getvalue()


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #
class ServedModel:
    """A decoded published model: read-only, thread-safe prediction state.

    Attributes
    ----------
    kind:
        ``"ml_pipeline"`` or ``"hybrid"`` (the factory shape it was
        published from).
    model:
        The rebuilt estimator (:class:`Pipeline` or
        :class:`HybridPerformanceModel` over a :class:`PackedRegressor`).
    n_features_in:
        Width every prediction row must have.
    feature_names:
        Column names (hybrids only; empty for plain pipelines).

    All prediction state is immutable after decode — arenas, scaler
    vectors and analytical constants are only ever read — so one
    instance serves concurrent threads without locking.
    """

    def __init__(self, *, kind: str, model, n_features_in: int,
                 feature_names: tuple[str, ...], forest: PackedForest) -> None:
        self.kind = kind
        self.model = model
        self.n_features_in = n_features_in
        self.feature_names = feature_names
        self.forest = forest

    def predict_rows(self, rows) -> np.ndarray:
        """Vectorized predictions for a batch of raw feature rows.

        One validation pass plus one vectorized descent for the whole
        batch; every output row depends only on its input row, so any
        concatenation of requests (micro-batching) is value-preserving.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(
                f"rows must be 2-D (n_rows, n_features), got shape {rows.shape}")
        if rows.shape[1] != self.n_features_in:
            raise ValueError(
                f"rows have {rows.shape[1]} features, but the model expects "
                f"{self.n_features_in}")
        return self.model.predict(rows)

    def describe(self) -> dict:
        """JSON-safe metadata for the server's ``/models`` listing."""
        return {
            "kind": self.kind,
            "n_features_in": self.n_features_in,
            "feature_names": list(self.feature_names),
            "n_trees": self.forest.n_trees,
            "node_count": self.forest.node_count,
        }


def _decode_scaler(data, n_features: int) -> StandardScaler | None:
    if not int(data["has_scaler"]):
        return None
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(data["scaler_mean"], dtype=np.float64)
    scaler.scale_ = np.asarray(data["scaler_scale"], dtype=np.float64)
    if scaler.mean_.shape != (n_features,) or scaler.scale_.shape != (n_features,):
        raise ValueError(
            f"scaler state has shape {scaler.mean_.shape}, expected ({n_features},)")
    scaler.n_features_in_ = n_features
    return scaler


#: What ``np.load`` and member reads raise on a structurally broken blob:
#: a missing member, a plain ``.npy`` array where an archive belongs, a
#: truncated or bit-flipped archive, no bytes at all.  An array header
#: whose brackets a bit flip unbalanced fails numpy's fallback header
#: parser with a ``SyntaxError`` or ``tokenize.TokenError``.
_MALFORMED_BLOB_ERRORS = (KeyError, TypeError, IndexError, EOFError, OSError,
                          SyntaxError, tokenize.TokenError, zipfile.BadZipFile,
                          zlib.error)


def decode_model(blob: bytes) -> ServedModel:
    """Rebuild a :class:`ServedModel` from :func:`encode_model` bytes.

    Pickle-free: only whitelisted estimator shapes are reconstructed.
    Raises :class:`ValueError` for every blob it cannot decode: unknown
    format versions or kinds, malformed arenas, and archives that are
    truncated, corrupt, missing a member or not archives at all (the
    server answers 503 — the blob passed its checksum, so a decode
    failure means a format skew, not corruption in the store).
    """
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            return _decode_members(data)
    except _MALFORMED_BLOB_ERRORS as exc:
        raise ValueError(
            f"malformed model blob ({type(exc).__name__}: {exc})") from exc


def _decode_members(data) -> ServedModel:
    """The :class:`ServedModel` the members of an opened model archive hold."""
    version = int(data["format"])
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"model blob has format version {version}, this build reads "
            f"{MODEL_FORMAT_VERSION}")
    kind = str(data["kind"])
    n_features_in = int(data["n_features_in"])
    feature_names = tuple(str(n) for n in data["feature_names"])
    forest = PackedForest.from_state(
        {name: data[f"forest_{name}"] for name in
         ("roots", "feature", "threshold", "value", "left", "right")})
    # A hybrid's forest also reads the stacked analytical column.
    width = n_features_in + (kind == "hybrid")
    if forest.feature.max() >= width:
        raise ValueError(f"model blob splits on feature {forest.feature.max()} "
                         f"of a {width}-column input")
    if kind == "ml_pipeline":
        scaler = _decode_scaler(data, n_features_in)
        regressor = PackedRegressor(forest=forest, n_features_in=n_features_in)
        steps = ([("scale", scaler)] if scaler is not None else [])
        steps.append(("model", regressor))
        pipeline = Pipeline(steps=list(steps))
        pipeline.steps_ = list(steps)
        return ServedModel(kind=kind, model=pipeline,
                           n_features_in=n_features_in,
                           feature_names=feature_names, forest=forest)
    if kind == "hybrid":
        from repro.experiments.plan import build_analytical

        if len(feature_names) != n_features_in:
            raise ValueError(
                f"hybrid blob names {len(feature_names)} features for "
                f"{n_features_in} columns")
        analytical_key = str(data["analytical"])
        model = HybridPerformanceModel(
            analytical_model=build_analytical(analytical_key),
            feature_names=list(feature_names),
            aggregate_analytical=bool(int(data["aggregate"])),
            analytical_weight=float(data["analytical_weight"]),
            log_analytical_feature=bool(int(data["log_feature"])),
            standardize=bool(int(data["has_scaler"])),
        )
        # The stacked feature matrix is the raw features plus the
        # analytical column, hence width n_features_in + 1.
        model.scaler_ = _decode_scaler(data, n_features_in + 1)
        model.stacked_model_ = PackedRegressor(
            forest=forest, n_features_in=n_features_in + 1)
        model.n_features_in_ = n_features_in
        return ServedModel(kind=kind, model=model,
                           n_features_in=n_features_in,
                           feature_names=feature_names, forest=forest)
    raise ValueError(f"unknown model kind {kind!r} in blob")


# --------------------------------------------------------------------------- #
# Fit-and-publish
# --------------------------------------------------------------------------- #
def publish_plan_models(plan, dataset, caches, store, *,
                        seed: int | None = None) -> dict:
    """Fit one canonical model per plan series and publish it to *store*.

    For every series of *plan*, the series' model factory is fitted on
    the **full** dataset (the experiment cells train on fractions; the
    published artifact is the best model the plan can produce) with
    *seed* (default: the plan's master ``random_state``, so republishing
    the same plan yields byte-identical predictions), encoded with
    :func:`encode_model` and written under
    ``models/<series>-<plan_fingerprint>.npz``.

    Series without a servable form (k-NN, bagged ensembles) are skipped
    with a warning.  Returns ``{"published": {series: key},
    "skipped": {series: reason}}``.
    """
    from repro.experiments.plan import build_factory

    seed = plan.random_state if seed is None else seed
    published: dict[str, str] = {}
    skipped: dict[str, str] = {}
    for spec in plan.series:
        factory = build_factory(spec.factory, dataset,
                                caches.get(spec.factory.analytical))
        model = factory(seed)
        try:
            model.fit(dataset.X, dataset.y)
            blob = encode_model(model, analytical_key=spec.factory.analytical)
        except ModelNotServableError as exc:
            logger.warning("series %r is not servable, skipping publish: %s",
                           spec.label, exc)
            skipped[spec.label] = str(exc)
            continue
        key = store.model_key(plan.fingerprint, spec.label)
        store.put_model_bytes(plan.fingerprint, spec.label, blob)
        published[spec.label] = key
    return {"published": published, "skipped": skipped}
