"""The paper's primary contribution: the hybrid performance model.

Section VI: the hybrid model consists of an analytical model of the
application, two ensemble methods (stacking and bagging), a training
algorithm and a prediction algorithm.  The analytical model's prediction
is fed to the machine-learning model as an additional feature (stacking);
optionally the analytical and stacked predictions are aggregated
(bagging-style) into the final prediction.

Public API
----------
* :class:`~repro.core.features.PerformanceDataset` — a named
  (features, execution times) bundle whose
  :meth:`~repro.core.features.PerformanceDataset.train_test_indices` is
  the paper's uniform random sampling of a training fraction,
* :class:`~repro.core.hybrid.HybridPerformanceModel` — the hybrid
  estimator (scikit-learn style ``fit``/``predict``),
* :func:`~repro.core.evaluation.evaluate_learning_curve` — the evaluation
  protocol behind every figure (MAPE on the held-out remainder versus
  training fraction, repeated over sampling seeds).
"""

from repro.core.evaluation import (
    LearningCurve,
    LearningCurvePoint,
    evaluate_learning_curve,
)
from repro.core.features import PerformanceDataset
from repro.core.hybrid import HybridPerformanceModel

__all__ = [
    "PerformanceDataset",
    "HybridPerformanceModel",
    "LearningCurvePoint",
    "LearningCurve",
    "evaluate_learning_curve",
]
