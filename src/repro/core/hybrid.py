"""The hybrid analytical + machine-learning performance model (Section VI).

The model couples an :class:`~repro.analytical.base.AnalyticalModel` with a
machine-learning regressor through two ensemble mechanisms:

* **Stacking** — the analytical model's prediction is appended to the
  feature vector as an additional input of the ML model ("the analytical
  model predictions are regarded as additional features for the machine
  learning model").
* **Bagging** — two distinct uses, both optional and both off by default:
  (a) the stacked ML regressor itself can be bagged, by passing a
  :class:`~repro.ml.bagging.BaggingRegressor` as ``ml_model``, to reduce
  its variance, and
  (b) the final prediction can aggregate the analytical prediction with
  the stacked prediction (``aggregate_analytical=True``), the paper's
  "results aggregation" stage, which is described as supplementary and is
  disabled in the paper's Figure 7 experiment because the analytical model
  does not capture parallelism.

Features are standardized to zero mean / unit variance before reaching the
ML model, as in Section V.
"""

from __future__ import annotations

import numpy as np

from repro.analytical.base import AnalyticalModel
from repro.ml.base import BaseEstimator, RegressorMixin, clone
from repro.ml.forest import ExtraTreesRegressor
from repro.ml.preprocessing import StandardScaler
from repro.utils.validation import check_array, check_is_fitted, check_X_y

__all__ = ["HybridPerformanceModel"]


class HybridPerformanceModel(BaseEstimator, RegressorMixin):
    """Hybrid analytical + ML execution-time predictor.

    Parameters
    ----------
    analytical_model:
        The application's analytical model (prediction-only, never trained).
    feature_names:
        Names of the columns of ``X``, needed by the analytical model to
        rebuild configuration objects.
    ml_model:
        The level-1 regressor stacked on top; defaults to the paper's best
        performer, extra trees.  Pass a
        :class:`~repro.ml.bagging.BaggingRegressor` to bag the stacked model.
    aggregate_analytical:
        If True, the final prediction is the (bagging-style) average of the
        analytical prediction and the stacked prediction.
    analytical_weight:
        Weight of the analytical prediction in the aggregation (0.5 =
        plain average).
    standardize:
        Standardize the stacked feature matrix (original features + the
        analytical prediction) before fitting the ML model.
    log_analytical_feature:
        Feed ``log(T_analytical)`` rather than the raw prediction as the
        extra feature.  Execution times span orders of magnitude across the
        configuration spaces; the log keeps the feature informative at both
        ends.  The aggregation stage always uses the raw (linear) value.
    analytical_cache:
        Optional :class:`~repro.analytical.cache.AnalyticalPredictionCache`
        bound to ``analytical_model``; when given, analytical predictions
        are served from (and recorded into) the cache, so repeated fits
        and predictions over the same dataset rows — the learning-curve
        protocol — evaluate each row only once.  The cache may be shared
        across many model instances (it holds no per-fit state).
    random_state:
        Seed forwarded to the ML model.
    """

    def __init__(
        self,
        *,
        analytical_model: AnalyticalModel,
        feature_names,
        ml_model: BaseEstimator | None = None,
        aggregate_analytical: bool = False,
        analytical_weight: float = 0.5,
        standardize: bool = True,
        log_analytical_feature: bool = True,
        analytical_cache=None,
        random_state=None,
    ) -> None:
        self.analytical_model = analytical_model
        self.feature_names = feature_names
        self.ml_model = ml_model
        self.aggregate_analytical = aggregate_analytical
        self.analytical_weight = analytical_weight
        self.standardize = standardize
        self.log_analytical_feature = log_analytical_feature
        self.analytical_cache = analytical_cache
        self.random_state = random_state
        self.scaler_: StandardScaler | None = None
        self.stacked_model_: BaseEstimator | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    # Training algorithm (Section VI)
    # ------------------------------------------------------------------ #
    def fit(self, X, y) -> HybridPerformanceModel:
        """Train the stacked ML model on features augmented with the AM prediction."""
        X, y = check_X_y(X, y)
        if not isinstance(self.analytical_model, AnalyticalModel):
            raise TypeError(
                "analytical_model must implement repro.analytical.AnalyticalModel"
            )
        if not 0.0 <= self.analytical_weight <= 1.0:
            raise ValueError(
                f"analytical_weight must be in [0, 1], got {self.analytical_weight}"
            )
        if X.shape[1] != len(list(self.feature_names)):
            raise ValueError(
                f"X has {X.shape[1]} columns but feature_names has "
                f"{len(list(self.feature_names))} entries"
            )
        if self.analytical_cache is not None:
            cached = self.analytical_cache.model
            if cached is not self.analytical_model and cached != self.analytical_model:
                raise ValueError(
                    "analytical_cache is bound to a different analytical model"
                )
            if list(self.analytical_cache.feature_names) != list(self.feature_names):
                raise ValueError(
                    "analytical_cache is bound to a different feature layout: "
                    f"{self.analytical_cache.feature_names} != {list(self.feature_names)}"
                )
        self.n_features_in_ = X.shape[1]

        Z = self._stacked_features(X)
        if self.standardize:
            self.scaler_ = StandardScaler().fit(Z)
            Z = self.scaler_.transform(Z)
        else:
            self.scaler_ = None

        base = self.ml_model if self.ml_model is not None else ExtraTreesRegressor(
            n_estimators=30, random_state=self.random_state
        )
        model = clone(base)
        if "random_state" in model.get_params(deep=False) and self.random_state is not None:
            model.set_params(random_state=self.random_state)
        model.fit(Z, y)
        self.stacked_model_ = model
        return self

    # ------------------------------------------------------------------ #
    # Prediction algorithm (Section VI)
    # ------------------------------------------------------------------ #
    def predict(self, X) -> np.ndarray:
        """Final hybrid prediction for each row of *X*."""
        parts = self.predict_components(X)
        return parts["final"]

    def predict_rows(self, rows) -> np.ndarray:
        """Vectorized serving path: final predictions for a batch of raw rows.

        *rows* is any ``(n_rows, n_features)`` array-like — e.g. the
        decoded JSON body of a model-server ``/predict`` request.  The
        whole batch is served by one analytical pass, one scaler
        transform and one ensemble descent; every prediction is
        computed row-wise from elementwise/per-row operations, so any
        concatenation of requests (the server's micro-batching) yields
        the same value for a given row as serving it alone.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(
                f"rows must be 2-D (n_rows, n_features), got shape {rows.shape}")
        return self.predict(rows)

    def predict_components(self, X) -> dict[str, np.ndarray]:
        """All intermediate predictions: analytical, stacked, and final."""
        check_is_fitted(self, "stacked_model_")
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, but the model was fitted with "
                f"{self.n_features_in_}"
            )
        analytical = self._analytical_predictions(X)
        Z = self._stacked_features(X, analytical=analytical)
        if self.scaler_ is not None:
            Z = self.scaler_.transform(Z)
        stacked = self.stacked_model_.predict(Z)
        if self.aggregate_analytical:
            w = self.analytical_weight
            final = w * analytical + (1.0 - w) * stacked
        else:
            final = stacked
        return {"analytical": analytical, "stacked": stacked, "final": final}

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _analytical_predictions(self, X: np.ndarray) -> np.ndarray:
        if self.analytical_cache is not None:
            preds = self.analytical_cache.predict(X)
        else:
            preds = self.analytical_model.predict(X, self.feature_names)
        preds = np.asarray(preds, dtype=np.float64)
        if preds.shape != (X.shape[0],):
            raise ValueError(
                f"analytical model returned shape {preds.shape}, expected ({X.shape[0]},)"
            )
        if np.any(~np.isfinite(preds)) or np.any(preds <= 0.0):
            raise ValueError("analytical model must return finite, positive times")
        return preds

    def _stacked_features(self, X: np.ndarray,
                          analytical: np.ndarray | None = None) -> np.ndarray:
        if analytical is None:
            analytical = self._analytical_predictions(X)
        feature = np.log(analytical) if self.log_analytical_feature else analytical
        return np.hstack([X, feature[:, None]])
