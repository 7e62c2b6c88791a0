"""Shared utilities: input validation, random numbers, array helpers, retries, timing."""

from repro.utils.rng import check_random_state
from repro.utils.validation import check_array, check_is_fitted, check_X_y

__all__ = [
    "check_random_state",
    "check_array",
    "check_X_y",
    "check_is_fitted",
]
