#!/usr/bin/env python
"""Stencil auto-tuning with a hybrid performance model.

The motivating use case of the paper's introduction: choosing loop-blocking
parameters for a stencil code without exhaustively running every candidate.
The hybrid model is trained on a small measured sample of the blocking
space and then ranks *all* candidate blockings; we compare the
configuration it recommends against the true optimum (which we can afford
to know here because the measurements come from the simulator).

Run:  python examples/stencil_autotuning.py
"""

import numpy as np

from repro.analytical import StencilAnalyticalModel
from repro.core import HybridPerformanceModel
from repro.datasets.stencil_datasets import stencil_dataset_from_space
from repro.ml import ExtraTreesRegressor
from repro.stencil import StencilConfigSpace

SEED = 1
TRAIN_FRACTION = 0.05
GRID = (1, 128, 128)          # the plane we want to tune blocking for


def main() -> None:
    # Candidate blockings for one target grid: every divisor tile.
    space = StencilConfigSpace(
        grid_sizes=[GRID], blockings="divisors", max_block_candidates=10,
        feature_names=["I", "J", "K", "bi", "bj", "bk"],
    )
    data = stencil_dataset_from_space(space, name="autotune-128x128")
    print(f"candidate blockings: {data.n_samples}")

    # Train the hybrid model on a small measured sample of the candidates.
    train_idx, _ = data.train_test_indices(train_fraction=TRAIN_FRACTION,
                                           random_state=SEED)
    model = HybridPerformanceModel(
        analytical_model=StencilAnalyticalModel(),
        feature_names=data.feature_names,
        ml_model=ExtraTreesRegressor(n_estimators=40, random_state=SEED),
        random_state=SEED,
    )
    model.fit(data.X[train_idx], data.y[train_idx])
    print(f"trained on {len(train_idx)} measured blockings "
          f"({TRAIN_FRACTION:.0%} of the space)\n")

    # Rank every candidate with the model and with the ground truth.
    predicted = model.predict(data.X)
    predicted_best = int(np.argmin(predicted))
    true_best = int(np.argmin(data.y))

    # A row's configuration is read off its feature columns by name.
    column = dict(zip(data.feature_names, data.X.T, strict=True))

    def describe(i: int) -> str:
        bi, bj, bk = (int(column[name][i]) for name in ("bi", "bj", "bk"))
        return (f"blocking (bi, bj, bk) = ({bi}, {bj}, {bk})  "
                f"time = {data.y[i] * 1e3:.3f} ms")

    print("model-recommended configuration:")
    print("   " + describe(predicted_best))
    print("true optimum:")
    print("   " + describe(true_best))

    # How much of the attainable speedup does the model's pick capture?
    worst = data.y.max()
    achieved = worst / data.y[predicted_best]
    attainable = worst / data.y[true_best]
    print(f"\nspeedup over the worst blocking: {achieved:.2f}x "
          f"(best attainable {attainable:.2f}x, "
          f"{100 * achieved / attainable:.0f}% of the attainable speedup)")

    # Top-5 candidates by predicted time.
    print("\ntop-5 predicted blockings:")
    order = np.argsort(predicted)[:5]
    for rank, i in enumerate(order, start=1):
        print(f"  {rank}. {describe(i)}  (predicted {predicted[i] * 1e3:.3f} ms)")


if __name__ == "__main__":
    main()
