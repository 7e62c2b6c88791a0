"""The paper's in-text analytical-model accuracy numbers.

Every figure of the paper is a learning-curve experiment declared as a
plan in :func:`~repro.experiments.plan.experiment_plan` and run by name
through :func:`~repro.experiments.runner.run_experiment` (or
:func:`~repro.experiments.scheduler.run_plan`).
``analytical_accuracy`` reports standalone numbers rather than learning
curves and therefore has no plan; ``run_experiment`` calls it from here.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.plan import planless_reads
from repro.experiments.runner import ExperimentResult, ExperimentSettings
from repro.experiments.scheduler import resolve_data
from repro.ml.metrics import mean_absolute_percentage_error

__all__ = ["analytical_accuracy"]


def analytical_accuracy(settings: ExperimentSettings | None = None,
                        store=None) -> ExperimentResult:
    """Standalone analytical-model MAPE on every dataset (paper: 42% and 84.5%).

    Each registry dataset is scored with the analytical model
    :func:`~repro.experiments.plan.planless_reads` pairs it with.  The
    dataset and the model's warmed cache come from
    :func:`~repro.experiments.scheduler.resolve_data`, through the
    optional *store* (a :class:`~repro.datasets.store.DatasetStore`) as a
    plan reads them.
    """
    settings = settings or ExperimentSettings()
    extra = {}
    for spec, key in planless_reads("analytical_accuracy", settings):
        dataset, caches = resolve_data(spec, (key,), store)
        predictions = caches[key].predict(dataset.X)
        extra[spec.name] = {
            "mape": mean_absolute_percentage_error(dataset.y, predictions),
            "log_correlation": float(np.corrcoef(np.log(dataset.y), np.log(predictions))[0, 1]),
            "n_configs": dataset.n_samples,
        }
    return ExperimentResult(
        experiment_id="analytical_accuracy",
        description="Untuned analytical-model MAPE per dataset (paper reports 42% / 84.5%)",
        dataset_name="all",
        curves={},
        extra=extra,
    )
