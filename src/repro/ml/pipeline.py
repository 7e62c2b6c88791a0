"""Transformer/estimator pipeline.

Used throughout the experiments to chain the paper's standardization step
(:class:`~repro.ml.preprocessing.StandardScaler`) with a regressor, so the
scaling statistics are always learned from the training split only.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin, clone
from repro.utils.validation import check_is_fitted

__all__ = ["Pipeline"]


class Pipeline(BaseEstimator, RegressorMixin):
    """Chain transformers with a final estimator.

    Parameters
    ----------
    steps:
        List of ``(name, estimator)`` pairs; all but the last must expose
        ``fit``/``transform``, the last must expose ``fit``/``predict``.
    """

    def __init__(self, *, steps: list[tuple[str, BaseEstimator]]) -> None:
        self.steps = steps
        self.steps_: list[tuple[str, BaseEstimator]] | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X, y=None) -> Pipeline:
        """Fit each transformer in order, then the final estimator."""
        self._validate()
        fitted: list[tuple[str, BaseEstimator]] = []
        Xt = X
        for name, step in self.steps[:-1]:
            step = clone(step)
            Xt = step.fit_transform(Xt, y)
            fitted.append((name, step))
        final_name, final = self.steps[-1]
        final = clone(final)
        final.fit(Xt, y)
        fitted.append((final_name, final))
        self.steps_ = fitted
        return self

    def _transform(self, X) -> np.ndarray:
        check_is_fitted(self, "steps_")
        Xt = X
        for _, step in self.steps_[:-1]:
            Xt = step.transform(Xt)
        return Xt

    def predict(self, X) -> np.ndarray:
        """Transform *X* through the pipeline and predict with the final step."""
        Xt = self._transform(X)
        return self.steps_[-1][1].predict(Xt)

    def transform(self, X) -> np.ndarray:
        """Apply all transformer steps (requires the final step to transform too)."""
        Xt = self._transform(X)
        final = self.steps_[-1][1]
        if not hasattr(final, "transform"):
            raise AttributeError("final pipeline step does not support transform")
        return final.transform(Xt)

    @property
    def named_steps(self) -> dict[str, BaseEstimator]:
        """Mapping of step name to the fitted step."""
        check_is_fitted(self, "steps_")
        return dict(self.steps_)

    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if not self.steps:
            raise ValueError("Pipeline needs at least one step")
        names = [name for name, _ in self.steps]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate step names: {names}")
        for name, step in self.steps[:-1]:
            if not hasattr(step, "transform"):
                raise TypeError(f"intermediate step {name!r} must implement transform")
        final_name, final = self.steps[-1]
        if not hasattr(final, "predict") and not hasattr(final, "transform"):
            raise TypeError(f"final step {final_name!r} must implement predict or transform")

