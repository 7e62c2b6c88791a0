"""Random-number-generator handling.

Every stochastic component in :mod:`repro` (tree learners, bootstrap
sampling, dataset noise, training-set sampling) accepts a ``random_state``
argument and resolves it through :func:`check_random_state`, so results are
reproducible when an integer seed is supplied.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

__all__ = ["check_random_state", "spawn_seeds", "hashed_noise_factors"]


def check_random_state(random_state) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *random_state*.

    Parameters
    ----------
    random_state : None, int, numpy.random.Generator or numpy.random.RandomState
        * ``None`` — a freshly seeded generator (non-deterministic).
        * int — a deterministic generator seeded with that value.
        * ``Generator`` — returned unchanged.
        * ``RandomState`` — wrapped into a ``Generator`` sharing its bit
          stream so legacy callers interoperate.

    Returns
    -------
    numpy.random.Generator
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, numbers.Integral):
        return np.random.default_rng(int(random_state))
    if isinstance(random_state, np.random.RandomState):
        return np.random.default_rng(random_state.randint(0, 2**31 - 1))
    raise TypeError(
        f"random_state must be None, an int, a numpy Generator or RandomState; "
        f"got {type(random_state).__name__}"
    )


def spawn_seeds(random_state, n: int) -> list[int]:
    """Draw *n* independent child seeds from *random_state*.

    Used by ensemble estimators to give each base estimator its own
    deterministic stream.
    """
    rng = check_random_state(random_state)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def hashed_noise_factors(keys, noise: float) -> np.ndarray:
    """Deterministic multiplicative jitter ``exp(noise * clip(z, -3, 3))`` per key.

    ``z`` is a Box–Muller standard normal drawn from the first 16 bytes of
    the key's SHA-256 digest, so a key always gets the same factor.  The
    performance simulators' array kernels use this; it matches their
    scalar ``_noise_factor`` bit for bit.
    """
    digests = b"".join(hashlib.sha256(key.encode()).digest()[:16] for key in keys)
    u1, u2 = (np.frombuffer(digests, dtype="<u8").reshape(-1, 2) / 2**64).T
    z = np.sqrt(-2.0 * np.log(np.maximum(u1, 1e-12))) * np.cos(2.0 * np.pi * u2)
    return np.exp(noise * np.clip(z, -3.0, 3.0))
