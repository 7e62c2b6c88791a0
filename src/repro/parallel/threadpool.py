"""Thread-pool map and index chunking.

Python threads cannot speed up pure-Python loops (the GIL), but the
executable engines in :mod:`repro.stencil` and :mod:`repro.fmm` spend their
time inside NumPy kernels which release the GIL, so a thread pool gives
real concurrency there.  ``parallel_map`` degrades gracefully to a serial
loop when ``n_jobs == 1`` (the default), which also keeps unit tests
deterministic and cheap.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

__all__ = ["parallel_map", "chunk_indices", "weighted_chunk_indices"]


def chunk_indices(n_items: int, n_chunks: int) -> list[range]:
    """Split ``range(n_items)`` into at most *n_chunks* contiguous ranges.

    The chunks are balanced: their lengths differ by at most one.  Empty
    chunks are never returned.
    """
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    n_chunks = min(n_chunks, n_items) if n_items > 0 else 0
    chunks: list[range] = []
    start = 0
    for i in range(n_chunks):
        size = n_items // n_chunks + (1 if i < n_items % n_chunks else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def weighted_chunk_indices(weights: Sequence[float],
                           n_chunks: int) -> list[list[int]]:
    """Partition ``range(len(weights))`` into weight-balanced index chunks.

    Greedy LPT (longest-processing-time-first): indices are assigned in
    decreasing weight order, each to the currently lightest chunk — the
    classic 4/3-optimal makespan heuristic.  Heavy items are isolated
    early and light ones fused together, so with skewed weights the
    chunks carry comparable total weight where :func:`chunk_indices`
    would put the one expensive item and several cheap ones in the same
    contiguous slice.

    Ties break deterministically (original order among equal weights,
    lowest chunk index among equal loads) and each returned chunk is
    sorted ascending, so callers that care about intra-chunk ordering
    see the original item order.  At most *n_chunks* chunks are
    returned; empty chunks never are.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    n_items = len(weights)
    n_chunks = min(n_chunks, n_items)
    if n_chunks == 0:
        return []
    order = sorted(range(n_items), key=lambda i: (-weights[i], i))
    loads = [0.0] * n_chunks
    members: list[list[int]] = [[] for _ in range(n_chunks)]
    for i in order:
        target = min(range(n_chunks), key=lambda c: (loads[c], c))
        loads[target] += weights[i]
        members[target].append(i)
    return [sorted(chunk) for chunk in members if chunk]


def parallel_map(func: Callable, items: Sequence, *, n_jobs: int = 1) -> list:
    """Apply *func* to every item, optionally with a thread pool.

    Parameters
    ----------
    func:
        Callable applied to each element of *items*.
    items:
        Sequence of work items.
    n_jobs:
        Number of worker threads.  ``1`` runs serially; ``-1`` uses as many
        workers as items (capped at 32).

    Returns
    -------
    list
        Results in the same order as *items*.
    """
    items = list(items)
    if n_jobs == 0 or n_jobs < -1:
        raise ValueError(f"n_jobs must be -1 or >= 1, got {n_jobs}")
    if n_jobs == -1:
        n_jobs = min(32, max(1, len(items)))
    if n_jobs == 1 or len(items) <= 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(func, items))
