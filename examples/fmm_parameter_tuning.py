#!/usr/bin/env python
"""FMM parameter tuning (the paper's Section VII-B use case).

Two parts:

1. **Real solver**: run the from-scratch FMM on a small particle set,
   verify its accuracy against direct summation, and show how the
   per-phase timings shift as the particles-per-leaf parameter ``q``
   changes (the P2P / M2L trade-off the analytical model captures).
2. **Hybrid tuning at scale**: train the hybrid model on a small sample of
   the full (t, N, q, k) configuration space (simulated Blue Waters
   measurements) and use it to pick ``q`` for a target accuracy/order,
   comparing against the true optimum.

Run:  python examples/fmm_parameter_tuning.py
"""

import numpy as np

from repro.analytical import FmmAnalyticalModel
from repro.core import HybridPerformanceModel
from repro.datasets import fmm_dataset
from repro.fmm import DirectSummation, Fmm, random_cube
from repro.ml import ExtraTreesRegressor

SEED = 0


def real_solver_demo() -> None:
    print("=" * 70)
    print("1. Real FMM solver vs direct summation (N = 2000, Laplace kernel)")
    print("=" * 70)
    particles = random_cube(2000, random_state=SEED)
    reference = DirectSummation().potentials(particles)

    print(f"{'q':>5} {'rel. error':>12} {'P2P time':>10} {'M2L time':>10} {'total':>10}")
    for q in (16, 64, 256):
        fmm = Fmm(order=4, max_per_leaf=q, theta=0.55)
        result = fmm.evaluate(particles)
        err = np.linalg.norm(result.potentials - reference) / np.linalg.norm(reference)
        t = result.timings
        print(f"{q:>5} {err:>12.2e} {t.p2p:>9.3f}s {t.m2l:>9.3f}s {t.total:>9.3f}s")
    print("small leaves shift work into M2L, large leaves into P2P\n")


def hybrid_tuning_demo() -> None:
    print("=" * 70)
    print("2. Hybrid model tuning q on the full (t, N, q, k) space")
    print("=" * 70)
    data = fmm_dataset()
    print(data.describe())

    train_idx, test_idx = data.train_test_indices(train_fraction=0.15, random_state=SEED)
    model = HybridPerformanceModel(
        analytical_model=FmmAnalyticalModel(),
        feature_names=data.feature_names,
        ml_model=ExtraTreesRegressor(n_estimators=30, random_state=SEED),
        random_state=SEED,
    )
    model.fit(data.X[train_idx], data.y[train_idx])

    from repro.ml.metrics import mean_absolute_percentage_error

    mape = mean_absolute_percentage_error(data.y[test_idx], model.predict(data.X[test_idx]))
    print(f"hybrid model MAPE on held-out configurations: {mape:.1f}%\n")

    # Pick the best q for a given scenario: N = 16384 particles, order 6,
    # 16 threads (a production-accuracy run on the full node).  Each row's
    # configuration is read off its feature columns by name.
    column = dict(zip(data.feature_names, data.X.T, strict=True))
    indices = np.flatnonzero((column["n_particles"] == 16384)
                             & (column["order"] == 6) & (column["threads"] == 16))
    predicted = model.predict(data.X[indices])
    best_pred = indices[int(np.argmin(predicted))]
    best_true = indices[int(np.argmin(data.y[indices]))]
    q = column["particles_per_leaf"]
    print("scenario: N=16384, order k=6, 16 threads")
    print(f"  model-recommended q : {int(q[best_pred]):>4d} "
          f"(true time {data.y[best_pred] * 1e3:.2f} ms)")
    print(f"  true optimal q      : {int(q[best_true]):>4d} "
          f"(true time {data.y[best_true] * 1e3:.2f} ms)")


def main() -> None:
    real_solver_demo()
    hybrid_tuning_demo()


if __name__ == "__main__":
    main()
