"""Estimator base classes and ``clone``.

The interface intentionally mirrors scikit-learn: estimators are configured
entirely through ``__init__`` keyword parameters, learn state only in
``fit`` (storing it in trailing-underscore attributes), and can be
re-instantiated with identical configuration via :func:`clone`.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any

import numpy as np

from repro.ml.metrics import r2_score

__all__ = ["BaseEstimator", "RegressorMixin", "TransformerMixin", "clone"]


class BaseEstimator:
    """Base class providing parameter introspection.

    Subclasses must accept all configuration as explicit keyword arguments
    in ``__init__`` and store them under the same attribute names, which is
    what makes :meth:`get_params`, :meth:`set_params` and :func:`clone`
    work without per-class boilerplate.
    """

    @classmethod
    def _get_param_names(cls) -> list[str]:
        init = cls.__init__
        if init is object.__init__:
            return []
        sig = inspect.signature(init)
        names = [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        return sorted(names)

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        """Return the estimator's configuration parameters.

        With ``deep=True``, parameters of nested estimators are included
        under ``<name>__<param>`` keys.
        """
        params: dict[str, Any] = {}
        for name in self._get_param_names():
            value = getattr(self, name)
            params[name] = value
            if deep and isinstance(value, BaseEstimator):
                for sub_name, sub_value in value.get_params(deep=True).items():
                    params[f"{name}__{sub_name}"] = sub_value
        return params

    def set_params(self, **params) -> BaseEstimator:
        """Set configuration parameters (supports ``nested__param`` syntax)."""
        if not params:
            return self
        valid = set(self._get_param_names())
        nested: dict[str, dict[str, Any]] = {}
        for key, value in params.items():
            if "__" in key:
                outer, inner = key.split("__", 1)
                if outer not in valid:
                    raise ValueError(
                        f"invalid parameter {outer!r} for {type(self).__name__}"
                    )
                nested.setdefault(outer, {})[inner] = value
            else:
                if key not in valid:
                    raise ValueError(
                        f"invalid parameter {key!r} for {type(self).__name__}; "
                        f"valid parameters: {sorted(valid)}"
                    )
                setattr(self, key, value)
        for outer, inner_params in nested.items():
            sub = getattr(self, outer)
            if not isinstance(sub, BaseEstimator):
                raise ValueError(f"parameter {outer!r} is not an estimator")
            sub.set_params(**inner_params)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params(deep=False).items())
        return f"{type(self).__name__}({params})"


class RegressorMixin:
    """Mixin adding the default R² ``score`` method for regressors."""

    def score(self, X, y) -> float:
        """Coefficient of determination R² of ``self.predict(X)`` w.r.t. ``y``."""
        return r2_score(np.asarray(y, dtype=float), self.predict(X))


class TransformerMixin:
    """Mixin adding ``fit_transform`` for transformers."""

    def fit_transform(self, X, y=None):
        """Fit to the data, then transform it."""
        return self.fit(X, y).transform(X)


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return an unfitted copy of *estimator* with identical parameters.

    Nested estimators held as parameters are themselves cloned, so the copy
    shares no mutable state with the original.
    """
    if not isinstance(estimator, BaseEstimator):
        raise TypeError(
            f"clone expects a BaseEstimator, got {type(estimator).__name__}"
        )
    params = estimator.get_params(deep=False)
    cloned_params = {}
    for name, value in params.items():
        if isinstance(value, BaseEstimator):
            cloned_params[name] = clone(value)
        else:
            cloned_params[name] = copy.deepcopy(value)
    return type(estimator)(**cloned_params)
