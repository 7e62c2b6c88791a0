"""Memoization of analytical-model predictions.

Analytical models are *prediction-only and deterministic* (they have no
``fit`` step — Section VI trains only the ML component), so a given
feature row always maps to the same predicted time.  The learning-curve
protocol, however, re-evaluates the analytical model for every
``(fraction, repeat)`` cell on overlapping subsets of the same dataset
rows.  :class:`AnalyticalPredictionCache` binds one analytical model and
feature layout, computes predictions for previously unseen rows in one
vectorized :meth:`~repro.analytical.base.AnalyticalModel.predict` call,
and serves every repeated row from a hash lookup, so each dataset row is
evaluated exactly once per experiment.
"""

from __future__ import annotations

import numpy as np

from repro.analytical.base import AnalyticalModel

__all__ = ["AnalyticalPredictionCache"]


def _row_keys(X: np.ndarray) -> list[bytes]:
    """Each row of a C-contiguous float64 matrix as its raw bytes, in one C loop."""
    return X.view(np.dtype((np.void, 8 * X.shape[1]))).ravel().tolist()


class AnalyticalPredictionCache:
    """Row-level memo of one analytical model's predictions.

    Parameters
    ----------
    model:
        The analytical model whose predictions are cached.
    feature_names:
        Column layout of every matrix that will be passed to
        :meth:`predict`; rows are keyed by their raw float64 bytes, so the
        layout must be consistent for lookups to be meaningful.
    """

    def __init__(self, model: AnalyticalModel, feature_names) -> None:
        if not isinstance(model, AnalyticalModel):
            raise TypeError(
                f"model must be an AnalyticalModel, got {type(model).__name__}"
            )
        self.model = model
        self.feature_names = list(feature_names)
        if not self.feature_names:
            # Rows of zero columns would all share one empty key.
            raise ValueError("a cache needs at least one feature name")
        self._store: dict[bytes, float] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def warm(self, X: np.ndarray) -> AnalyticalPredictionCache:
        """Precompute predictions for every row of *X* (e.g. a full dataset)."""
        self.predict(X)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted times for *X*, computing only never-seen rows."""
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"X has {X.shape[1]} columns but the cache is bound to "
                f"{len(self.feature_names)} feature names"
            )
        keys = _row_keys(X)
        store = self._store
        values = list(map(store.get, keys))
        missing = []
        if None in values:
            missing = [i for i, value in enumerate(values) if value is None]
            predicted = self.model.predict(X[missing], self.feature_names)
            store.update(zip([keys[i] for i in missing], map(float, predicted),
                             strict=True))
            values = list(map(store.get, keys))
        self.misses += len(missing)
        self.hits += len(keys) - len(missing)
        return np.array(values, dtype=np.float64)

    def clear(self) -> None:
        """Drop all memoized rows and reset the hit/miss counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # Persistence (see repro.datasets.store for the fingerprint scheme)
    # ------------------------------------------------------------------ #
    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """Memoized contents as ``(rows, values)`` arrays.

        ``rows`` is the ``(n_memoized, n_features)`` matrix of cached
        feature rows (reassembled from their byte keys) and ``values`` the
        matching predictions; together they rebuild the cache exactly.
        """
        d = len(self.feature_names)
        if not self._store:
            return (np.empty((0, d), dtype=np.float64),
                    np.empty(0, dtype=np.float64))
        rows = np.frombuffer(b"".join(self._store), dtype=np.float64)
        values = np.fromiter(self._store.values(), dtype=np.float64,
                             count=len(self._store))
        return rows.reshape(len(self._store), d), values

    def load_rows(self, rows: np.ndarray, values: np.ndarray) -> AnalyticalPredictionCache:
        """Insert precomputed ``(rows, values)`` pairs without touching the counters."""
        rows = np.ascontiguousarray(np.atleast_2d(np.asarray(rows, dtype=np.float64)))
        values = np.asarray(values, dtype=np.float64).ravel()
        if rows.shape[0] != values.shape[0]:
            raise ValueError(
                f"{rows.shape[0]} rows for {values.shape[0]} values")
        if rows.size and rows.shape[1] != len(self.feature_names):
            raise ValueError(
                f"rows have {rows.shape[1]} columns but the cache is bound to "
                f"{len(self.feature_names)} feature names")
        self._store.update(zip(_row_keys(rows), values.tolist(), strict=True))
        return self

    def save(self, path) -> None:
        """Persist the memoized rows/values (and feature layout) to *path*."""
        rows, values = self.state()
        np.savez(path, rows=rows, values=values,
                 feature_names=np.array(self.feature_names))

    @classmethod
    def load(cls, path, model: AnalyticalModel, feature_names) -> AnalyticalPredictionCache:
        """Rebuild a warmed cache saved by :meth:`save`, bound to *model*.

        The stored feature layout must match *feature_names*; the caller
        is responsible for pairing the file with the right model (the
        store keys files by model key and dataset fingerprint).
        """
        cache = cls(model, feature_names)
        with np.load(path, allow_pickle=False) as data:
            stored = [str(n) for n in data["feature_names"]]
            if stored != cache.feature_names:
                raise ValueError(
                    f"cache file has feature layout {stored}, expected "
                    f"{cache.feature_names}")
            cache.load_rows(data["rows"], data["values"])
        return cache
