"""Analytical performance models (Section IV of the paper).

The models translate a configuration vector and a machine description into
a predicted execution time using closed-form expressions:

* :mod:`repro.analytical.base` — the roofline-style combination
  ``T = max(T_flops, T_mem)`` (Eq. 2) and the
  :class:`~repro.analytical.base.AnalyticalModel` interface consumed by
  the hybrid model,
* :mod:`repro.analytical.stencil_model` — the multi-level-cache stencil
  model of Section IV-A (Eq. 3–7 with the ``nplanes`` case analysis and
  linear-interpolation smoothing) plus the loop-blocking extension of
  Section VII-A (Eq. 15),
* :mod:`repro.analytical.fmm_model` — the FMM P2P and M2L computation and
  memory-access models of Section IV-B (Eq. 8–14),
* :mod:`repro.analytical.cache` — per-row memoization of a model's
  predictions over a dataset, shared by every fit of an experiment,
* :mod:`repro.analytical.calibration` — the least-squares scale factor
  that aligns a model's predictions with measurements (the paper
  deliberately does *not* tune the models for Figs. 6 and 8; the
  analytical-quality ablation reports how much rescaling would help).
"""

from repro.analytical.base import AnalyticalModel, roofline_time
from repro.analytical.cache import AnalyticalPredictionCache
from repro.analytical.calibration import calibrate_scale
from repro.analytical.fmm_model import FmmAnalyticalModel
from repro.analytical.stencil_model import StencilAnalyticalModel

__all__ = [
    "AnalyticalModel",
    "AnalyticalPredictionCache",
    "roofline_time",
    "StencilAnalyticalModel",
    "FmmAnalyticalModel",
    "calibrate_scale",
]
