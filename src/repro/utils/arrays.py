"""Array helpers for vectorized kernels that must match scalar code bit for bit."""

from __future__ import annotations

import numpy as np

__all__ = ["map_unique"]


def map_unique(fn, values) -> np.ndarray:
    """``np.array([fn(v) for v in values])``, calling *fn* once per distinct value.

    Each distinct value reaches *fn* as a Python scalar (``int`` or
    ``float``), exactly as scalar code sees it.  A kernel uses this for
    terms that take few distinct values and must keep the scalar path's
    bits: Python ``**`` and ``np.power`` disagree in the last bit.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in uniq.tolist()])[inverse]
