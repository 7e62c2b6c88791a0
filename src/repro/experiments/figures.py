"""One experiment definition per figure of the paper.

The figure functions are thin wrappers over the declarative plans in
:mod:`repro.experiments.plan`: each resolves its
:class:`~repro.experiments.plan.ExperimentPlan` (which dataset, which
models, which training fractions, which hybrid options) and hands it to
:func:`~repro.experiments.scheduler.run_plan`, which owns the evaluation
protocol and the persistent dataset/cache store and runs the cells where
its ``workers`` argument says.
``analytical_accuracy`` reports standalone numbers rather than learning
curves and therefore bypasses the plan machinery.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import PerformanceDataset
from repro.datasets.store import DatasetSpec
from repro.experiments.plan import build_analytical
from repro.experiments.runner import ExperimentResult, ExperimentSettings, _resolve_store
from repro.experiments.scheduler import run_named_plan, warmed_cache
from repro.ml.metrics import mean_absolute_percentage_error

__all__ = [
    "figure3_stencil",
    "figure3_fmm",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "analytical_accuracy",
]


def figure3_stencil(settings: ExperimentSettings | None = None,
                    dataset: PerformanceDataset | None = None,
                    **scheduler_options) -> ExperimentResult:
    """Figure 3A: MAPE of DT / extra trees / random forests on the blocked stencil dataset."""
    return run_named_plan("figure3_stencil", settings, dataset, **scheduler_options)


def figure3_fmm(settings: ExperimentSettings | None = None,
                dataset: PerformanceDataset | None = None,
                **scheduler_options) -> ExperimentResult:
    """Figure 3B: MAPE of DT / extra trees / random forests on the FMM dataset."""
    return run_named_plan("figure3_fmm", settings, dataset, **scheduler_options)


def figure5(settings: ExperimentSettings | None = None,
            dataset: PerformanceDataset | None = None,
            **scheduler_options) -> ExperimentResult:
    """Figure 5: accurate-analytical-model region (grid sizes only).

    The pure extra-trees model trains on 10/15/20% of the dataset, the
    hybrid model on only 1/2/4%.
    """
    return run_named_plan("figure5", settings, dataset, **scheduler_options)


def figure6(settings: ExperimentSettings | None = None,
            dataset: PerformanceDataset | None = None,
            **scheduler_options) -> ExperimentResult:
    """Figure 6: inaccurate analytical model (blocking added, untuned).

    Both models train on 1/2/4% of the dataset.  The hybrid stacks the
    untuned analytical prediction as an extra feature (no final
    aggregation); incorporating the inaccurate analytical model still cuts
    the error of the pure ML model roughly in half, as in the paper.  The
    aggregation variant is evaluated separately in
    :func:`repro.experiments.ablations.ablation_aggregation`.
    """
    return run_named_plan("figure6", settings, dataset, **scheduler_options)


def figure7(settings: ExperimentSettings | None = None,
            dataset: PerformanceDataset | None = None,
            **scheduler_options) -> ExperimentResult:
    """Figure 7: region not covered by the analytical model (multi-threading).

    The serial analytical model is coupled with extra trees; as in the
    paper, the analytical and stacked predictions are *not* aggregated
    because the analytical model does not capture parallelism.
    """
    return run_named_plan("figure7", settings, dataset, **scheduler_options)


def figure8(settings: ExperimentSettings | None = None,
            dataset: PerformanceDataset | None = None,
            **scheduler_options) -> ExperimentResult:
    """Figure 8: FMM parameter tuning with an untuned analytical model."""
    return run_named_plan("figure8", settings, dataset, **scheduler_options)


# --------------------------------------------------------------------------- #
# In-text analytical-model accuracy numbers (no learning curves — no plan)
# --------------------------------------------------------------------------- #
#: Registry dataset -> the analytical model (registry key) it is scored with.
_ACCURACY_MODELS = {
    "stencil-grid-only": "stencil",
    "stencil-blocked": "stencil",
    "stencil-threaded": "stencil",
    "fmm": "fmm",
}


def analytical_accuracy(settings: ExperimentSettings | None = None,
                        store=None) -> ExperimentResult:
    """Standalone analytical-model MAPE on every dataset (paper: 42% and 84.5%).

    With a *store* (a :class:`~repro.datasets.store.DatasetStore` or a
    directory path) each dataset and its model's warmed cache are read
    through it, as a plan reads them; without one the datasets are built
    and predicted here.  The numbers are the same either way.
    """
    settings = settings or ExperimentSettings()
    store = _resolve_store(store)
    extra = {}
    for name, key in _ACCURACY_MODELS.items():
        spec = DatasetSpec(name, max_configs=settings.max_configs, random_state=0)
        if store is None:
            dataset = spec.build()
            predictions = build_analytical(key).predict(dataset.X, dataset.feature_names)
        else:
            dataset = store.get(spec)
            predictions = warmed_cache(key, spec, dataset, store).predict(dataset.X)
        extra[name] = {
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
