"""Performance datasets: feature matrices and response times.

Section V of the paper: "We encode information about the applications
input sizes and tuning parameters into feature vectors and use the
execution time as the response variable."  :class:`PerformanceDataset`
is that encoding and nothing more: ML models fit its ``X`` and ``y``,
and analytical models rebuild a configuration from each feature row by
column name (``config_from_features`` on
:class:`~repro.analytical.base.AnalyticalModel`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import check_random_state

__all__ = ["PerformanceDataset"]


@dataclass
class PerformanceDataset:
    """A named performance-modeling dataset.

    Attributes
    ----------
    name:
        Human-readable dataset name (e.g. ``"stencil-blocked"``).
    X:
        ``(n_samples, n_features)`` feature matrix.
    y:
        ``(n_samples,)`` execution times in seconds.
    feature_names:
        Column names of ``X`` (subset of the application's modeling vector).
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    feature_names: Sequence[str]

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError(
                f"y must have shape ({self.X.shape[0]},), got {self.y.shape}"
            )
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {self.X.shape[1]} columns"
            )
        self.feature_names = list(self.feature_names)

    # ------------------------------------------------------------------ #
    @property
    def n_samples(self) -> int:
        """Number of rows."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return self.X.shape[1]

    def train_test_indices(self, *, train_fraction: float | None = None,
                           train_size: int | None = None,
                           min_train: int = 3,
                           random_state=None) -> tuple[np.ndarray, np.ndarray]:
        """Uniform-random train/test index split (the paper's sampling).

        Exactly one of ``train_fraction`` and ``train_size`` must be given.
        The training set never drops below ``min_train`` samples (relevant
        for the paper's 1% fractions on small datasets) and never exceeds
        ``n_samples - 1`` so the test set is non-empty.
        """
        if (train_fraction is None) == (train_size is None):
            raise ValueError("specify exactly one of train_fraction or train_size")
        if train_fraction is not None:
            if not 0.0 < train_fraction < 1.0:
                raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
            train_size = int(round(train_fraction * self.n_samples))
        train_size = int(np.clip(train_size, min_train, self.n_samples - 1))
        rng = check_random_state(random_state)
        perm = rng.permutation(self.n_samples)
        return perm[:train_size], perm[train_size:]

    def subset(self, indices: np.ndarray) -> PerformanceDataset:
        """Dataset restricted to *indices*."""
        indices = np.asarray(indices)
        return PerformanceDataset(
            name=self.name,
            X=self.X[indices],
            y=self.y[indices],
            feature_names=list(self.feature_names),
        )

    def describe(self) -> str:
        """One-line summary used by the experiment reports."""
        return (f"{self.name}: {self.n_samples} configurations x "
                f"{self.n_features} features {tuple(self.feature_names)}, "
                f"time range [{self.y.min():.3e}, {self.y.max():.3e}] s")
