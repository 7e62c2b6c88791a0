"""repro — Learning with Analytical Models.

A from-scratch reproduction of Ibeid et al., *Learning with Analytical
Models* (2019): hybrid analytical + machine-learning performance
prediction for HPC applications, together with every substrate the paper
depends on (a PATUS-like stencil engine, an ExaFMM-like fast multipole
method, analytical models of both, a scikit-learn-equivalent ML stack, a
Blue-Waters-class machine model and per-application performance
simulators).

Quick start
-----------
>>> from repro import datasets, core, analytical
>>> data = datasets.blocked_small_grid_dataset(max_configs=400)
>>> model = core.HybridPerformanceModel(
...     analytical_model=analytical.StencilAnalyticalModel(),
...     feature_names=data.feature_names, random_state=0)
>>> train, test = data.train_test_indices(train_fraction=0.02, random_state=0)
>>> _ = model.fit(data.X[train], data.y[train])
>>> predictions = model.predict(data.X[test])

See ``examples/`` and the README (``python -m repro.experiments``) for
the full evaluation.
"""

from repro import analytical, core, datasets, experiments, fmm, machine, ml, parallel, stencil, utils
from repro.core import HybridPerformanceModel, PerformanceDataset

__version__ = "1.0.0"

__all__ = [
    "analytical",
    "core",
    "datasets",
    "experiments",
    "fmm",
    "machine",
    "ml",
    "parallel",
    "stencil",
    "utils",
    "HybridPerformanceModel",
    "PerformanceDataset",
    "__version__",
]
