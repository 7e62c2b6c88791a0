"""Learning-curve evaluation protocol.

Every figure in the paper's evaluation reports MAPE on a held-out set as a
function of the training-set size (a percentage of the full dataset), as a
distribution over repeated uniform random samplings.  This module
implements that protocol once, for any model factory, so every
experiment and benchmark shares the same code path.

The protocol is decomposed into three pure stages so any executor (one
process, a thread pool, a process pool) produces bit-identical curves:

1. :func:`plan_learning_curve` expands ``(fractions, n_repeats,
   random_state)`` into a list of :class:`EvalCell` tasks.  Seed
   derivation happens entirely at planning time (one sequential RNG
   stream, exactly as the original serial loop drew it), so a cell's
   outcome depends only on the cell itself, never on evaluation order.
2. :func:`evaluate_cell` runs one ``(fraction, repeat)`` fit and returns a
   :class:`CellResult`.  Both dataclasses are picklable and hold only
   primitives, so cells can cross process boundaries.
3. :func:`merge_cell_results` folds results back into a
   :class:`LearningCurve` in plan order, making the merge deterministic
   regardless of the order results arrived in.

:func:`evaluate_learning_curve` is the serial composition of the three.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import PerformanceDataset
from repro.ml.metrics import mean_absolute_percentage_error
from repro.utils.rng import check_random_state, spawn_seeds

__all__ = [
    "LearningCurvePoint",
    "LearningCurve",
    "EvalCell",
    "CellResult",
    "plan_learning_curve",
    "evaluate_cell",
    "merge_cell_results",
    "evaluate_learning_curve",
]


@dataclass
class LearningCurvePoint:
    """MAPE distribution for one training fraction."""

    fraction: float
    n_train: int
    mapes: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        """Mean MAPE across sampling repetitions."""
        return float(np.mean(self.mapes))

    @property
    def std(self) -> float:
        """Standard deviation of MAPE across repetitions."""
        return float(np.std(self.mapes))

    @property
    def min(self) -> float:
        """Best (lowest) MAPE observed."""
        return float(np.min(self.mapes))

    @property
    def max(self) -> float:
        """Worst (highest) MAPE observed."""
        return float(np.max(self.mapes))


@dataclass
class LearningCurve:
    """A labelled series of learning-curve points (one line of a figure)."""

    label: str
    points: list[LearningCurvePoint] = field(default_factory=list)

    def mape_at(self, fraction: float) -> float:
        """Mean MAPE at a given training fraction."""
        for point in self.points:
            if abs(point.fraction - fraction) < 1e-12:
                return point.mean
        raise KeyError(f"no point at fraction {fraction} in curve {self.label!r}")

    @property
    def fractions(self) -> list[float]:
        """Training fractions present in the curve."""
        return [p.fraction for p in self.points]

    @property
    def means(self) -> list[float]:
        """Mean MAPE at each fraction."""
        return [p.mean for p in self.points]

    def as_rows(self) -> list[dict]:
        """Flat row dictionaries, convenient for reporting."""
        return [
            {
                "series": self.label,
                "fraction": p.fraction,
                "n_train": p.n_train,
                "mape_mean": p.mean,
                "mape_std": p.std,
                "mape_min": p.min,
                "mape_max": p.max,
            }
            for p in self.points
        ]


@dataclass(frozen=True)
class EvalCell:
    """One ``(series, fraction, repeat)`` unit of learning-curve work.

    A cell is *pure*: evaluating it requires only the dataset it names,
    a model factory resolved from :attr:`factory_key`, and the fields
    below — no shared RNG, no mutable experiment state.  All fields are
    primitives, so cells pickle cheaply across process boundaries.

    Attributes
    ----------
    series:
        Label of the learning curve the cell belongs to.
    factory_key:
        Key under which the scheduling layer resolves the model factory
        (the evaluation layer treats it as opaque; inline callers may
        leave it empty).
    fraction:
        Training fraction of the cell.
    repeat:
        Repeat index within the fraction (``0 .. n_repeats - 1``).
    seed:
        Seed derived at planning time; drives both the train/test split
        and the model's randomness, exactly as the serial loop did.
    min_train:
        Lower bound on the number of training samples.
    """

    series: str
    factory_key: str
    fraction: float
    repeat: int
    seed: int
    min_train: int = 3

    @property
    def key(self) -> tuple[str, float, int]:
        """Identity of the cell within its plan: ``(series, fraction, repeat)``.

        The shared join key between cells and results — the merge, the
        process executor's bookkeeping and the distributed coordinator's
        lease/requeue/dedupe tracking all match on it.
        """
        return (self.series, self.fraction, self.repeat)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one :class:`EvalCell`: the split size and held-out MAPE."""

    series: str
    fraction: float
    repeat: int
    n_train: int
    mape: float

    @property
    def key(self) -> tuple[str, float, int]:
        """Join key matching :attr:`EvalCell.key` of the producing cell."""
        return (self.series, self.fraction, self.repeat)


def plan_learning_curve(
    fractions: Sequence[float],
    n_repeats: int,
    *,
    series: str = "model",
    factory_key: str = "",
    min_train: int = 3,
    random_state=0,
) -> list[EvalCell]:
    """Expand a learning-curve evaluation into independent :class:`EvalCell` tasks.

    Seeds are drawn from one sequential stream (``n_repeats`` per
    fraction, fractions in order), which reproduces exactly the seeds the
    original serial loop consumed — so a plan evaluated cell-by-cell in
    any order merges into the same curve the serial code produced.
    """
    if not fractions:
        raise ValueError("fractions must be non-empty")
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    rng = check_random_state(random_state)
    cells: list[EvalCell] = []
    for fraction in fractions:
        seeds = spawn_seeds(rng, n_repeats)
        for repeat, seed in enumerate(seeds):
            cells.append(EvalCell(
                series=series,
                factory_key=factory_key,
                fraction=float(fraction),
                repeat=repeat,
                seed=seed,
                min_train=min_train,
            ))
    return cells


def evaluate_cell(
    cell: EvalCell,
    model_factory: Callable[[int], object],
    dataset: PerformanceDataset,
) -> CellResult:
    """Evaluate one cell: split, fit a fresh model, score held-out MAPE."""
    train_idx, test_idx = dataset.train_test_indices(
        train_fraction=cell.fraction, min_train=cell.min_train,
        random_state=cell.seed,
    )
    model = model_factory(cell.seed)
    model.fit(dataset.X[train_idx], dataset.y[train_idx])
    predictions = model.predict(dataset.X[test_idx])
    return CellResult(
        series=cell.series,
        fraction=cell.fraction,
        repeat=cell.repeat,
        n_train=len(train_idx),
        mape=mean_absolute_percentage_error(dataset.y[test_idx], predictions),
    )


def merge_cell_results(
    plan: Sequence[EvalCell],
    results: Iterable[CellResult],
    *,
    label: str | None = None,
) -> LearningCurve:
    """Fold cell results into a :class:`LearningCurve`, in plan order.

    The merge is deterministic: points follow the plan's fraction order
    and each point's MAPE list follows the repeat index, so the curve is
    identical no matter which executor produced the results or in which
    order they arrived.
    """
    if not plan:
        raise ValueError("plan must be non-empty")
    by_key = {r.key: r for r in results}
    curve = LearningCurve(label=label if label is not None else plan[0].series)
    point: LearningCurvePoint | None = None
    for cell in plan:
        try:
            result = by_key[cell.key]
        except KeyError:
            raise ValueError(
                f"missing result for cell {cell.series!r} fraction={cell.fraction} "
                f"repeat={cell.repeat}"
            ) from None
        if point is None or point.fraction != cell.fraction:
            point = LearningCurvePoint(fraction=cell.fraction, n_train=result.n_train)
            curve.points.append(point)
        elif result.n_train != point.n_train:
            # The split size is a deterministic function of the fraction and
            # dataset, so repeats must agree.
            raise RuntimeError(
                f"inconsistent n_train across repeats at fraction {cell.fraction}: "
                f"{result.n_train} != {point.n_train}"
            )
        point.mapes.append(result.mape)
    return curve


def evaluate_learning_curve(
    model_factory: Callable[[int], object],
    dataset: PerformanceDataset,
    *,
    fractions: Sequence[float],
    n_repeats: int = 3,
    min_train: int = 3,
    label: str = "model",
    random_state=0,
    analytical_cache=None,
) -> LearningCurve:
    """MAPE-vs-training-fraction curve for one model family.

    Parameters
    ----------
    model_factory:
        Callable ``factory(seed) -> estimator`` returning a *fresh*,
        unfitted model; called once per (fraction, repeat).
    dataset:
        The performance dataset to learn.
    fractions:
        Training fractions (e.g. ``[0.01, 0.02, 0.04]``).
    n_repeats:
        Number of independent uniform random samplings per fraction.
    min_train:
        Lower bound on the number of training samples.
    label:
        Name of the resulting curve.
    random_state:
        Master seed; per-repeat seeds are spawned deterministically.
    analytical_cache:
        Optional :class:`~repro.analytical.cache.AnalyticalPredictionCache`
        shared with the models the factory produces.  It is warmed with
        the full dataset up front (one vectorized evaluation), so every
        ``(fraction, repeat)`` cell afterwards is pure cache hits.
    """
    if analytical_cache is not None:
        analytical_cache.warm(dataset.X)
    plan = plan_learning_curve(
        fractions, n_repeats, series=label, min_train=min_train,
        random_state=random_state,
    )
    results = [evaluate_cell(cell, model_factory, dataset) for cell in plan]
    return merge_cell_results(plan, results, label=label)

