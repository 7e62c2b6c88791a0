"""Tests for histogram-binned split search (``tree_method="hist"``).

The guarantees under test:

* **binning protocol** — quantile edges, the ``code <= b  <=>  x <=
  edges[b]`` predicate, and the exactness guarantee (a feature with at
  most ``max_bins`` distinct values bins losslessly);
* **exactness** — with ``max_bins`` >= the number of distinct values the
  hist builder grows the *same* trees as exact split search;
* **statistical equivalence** — on the registry datasets, hist forests
  reach the same held-out R^2 as exact forests within tolerance;
* **scheduling** — ``tree_method="hist"`` estimators flow through the
  ``EvalCell`` protocol: binned trees pickle, and the serial and process
  executors produce bit-identical experiment rows.
"""

import pickle

import numpy as np
import pytest

from repro.core.evaluation import evaluate_cell, plan_learning_curve
from repro.experiments import ExperimentSettings, expand_cells, experiment_plan, run_experiment
from repro.experiments.plan import EstimatorSpec, build_factory
from repro.ml import (
    DecisionTreeRegressor,
    ExtraTreesRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)
from repro.ml._hist import bin_dataset, compute_bin_edges
from repro.ml.metrics import r2_score
from repro.ml.model_selection import train_test_split

from tests.test_ml_engines import assert_trees_identical

TINY = ExperimentSettings(n_estimators=4, n_repeats=2, max_configs=120, random_state=0)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 10.0, size=(400, 5))
    X[:, 3] = np.round(X[:, 3])  # a low-cardinality feature
    y = np.where(X[:, 0] > 5, 10.0, 1.0) + 0.4 * X[:, 1] ** 2 + 0.1 * rng.normal(size=400)
    return X, y


class TestBinning:
    def test_edges_are_midpoints_when_exact(self):
        X = np.array([[0.0], [1.0], [2.0], [5.0], [5.0]])
        (edges,) = compute_bin_edges(X, max_bins=256)
        np.testing.assert_allclose(edges, [0.5, 1.5, 3.5])

    def test_midpoint_rounding_guard(self):
        # Adjacent float values whose midpoint rounds up onto the right
        # value must use the left value as the edge.
        a = 1.0
        b = np.nextafter(a, 2.0)
        X = np.array([[a], [b]])
        (edges,) = compute_bin_edges(X, max_bins=4)
        assert edges[0] == a

    def test_quantile_edges_bounded(self, data):
        X, _ = data
        edges = compute_bin_edges(X, max_bins=16)
        for e in edges:
            assert e.size <= 15
            assert np.all(np.diff(e) > 0)

    def test_constant_feature_has_no_edges(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        edges = compute_bin_edges(X)
        assert edges[0].size == 0 and edges[1].size == 9

    def test_code_predicate_matches_threshold_predicate(self, data):
        X, _ = data
        codes, edges_pad = bin_dataset(X, max_bins=32)
        assert codes.dtype == np.uint8
        for f in range(X.shape[1]):
            finite = np.isfinite(edges_pad[f])
            for b in np.nonzero(finite)[0][:: max(1, finite.sum() // 5)]:
                np.testing.assert_array_equal(
                    codes[:, f] <= b, X[:, f] <= edges_pad[f, b])

    def test_max_bins_validated(self, data):
        X, _ = data
        with pytest.raises(ValueError, match="max_bins"):
            compute_bin_edges(X, max_bins=1)


def assert_trees_equivalent(a, b, X):
    """Same structure and same training-set partitions.

    Thresholds are *not* compared bit-for-bit: between two consecutive
    node-local feature values exact search places the threshold at
    the local midpoint while the hist builder uses the lowest global bin
    edge inside the gap — different floats, identical partitions.
    """
    np.testing.assert_array_equal(a.feature, b.feature)
    np.testing.assert_array_equal(a.left, b.left)
    np.testing.assert_array_equal(a.right, b.right)
    np.testing.assert_array_equal(a.n_samples, b.n_samples)
    np.testing.assert_array_equal(a.value, b.value)
    np.testing.assert_array_equal(a.impurity, b.impurity)
    np.testing.assert_array_equal(a.apply(X), b.apply(X))


class TestExactness:
    """With max_bins >= distinct values, hist finds the same splits as
    exact search, node for node."""

    @pytest.fixture(scope="class")
    def exact_regime_data(self):
        # 200 rows -> at most 200 distinct values per feature < 256 bins,
        # so every feature bins losslessly.
        rng = np.random.default_rng(7)
        X = rng.uniform(0.0, 10.0, size=(200, 5))
        X[:, 3] = np.round(X[:, 3])
        y = (np.where(X[:, 0] > 5, 10.0, 1.0) + 0.4 * X[:, 1] ** 2
             + 0.1 * rng.normal(size=200))
        return X, y

    # Constrained trees keep nodes large: unconstrained full-depth trees
    # reach tiny nodes where two features can induce *mirrored* partitions
    # with mathematically equal SSE, and the builders' different float
    # paths (SSE scan vs gain scan) may break such ties differently.
    @pytest.mark.parametrize("kwargs", [
        dict(min_samples_leaf=5),
        dict(max_features=2, min_samples_leaf=5),
        dict(min_samples_leaf=5, max_depth=6),
    ])
    def test_best_tree_matches_batched(self, exact_regime_data, kwargs):
        X, y = exact_regime_data
        batched = DecisionTreeRegressor(random_state=3, tree_method="exact",
                                        **kwargs).fit(X, y)
        hist = DecisionTreeRegressor(random_state=3, tree_method="hist",
                                     **kwargs).fit(X, y)
        assert_trees_equivalent(batched.tree_, hist.tree_, X)

    def test_forest_matches_batched(self, exact_regime_data):
        # bootstrap=False so every tree trains on the full X and the
        # partition check is valid for all rows (out-of-bag rows may fall
        # inside a threshold gap where the builders' thresholds differ).
        X, y = exact_regime_data
        batched = RandomForestRegressor(n_estimators=6, random_state=0,
                                        min_samples_leaf=5, bootstrap=False,
                                        tree_method="exact").fit(X, y)
        hist = RandomForestRegressor(n_estimators=6, random_state=0,
                                     min_samples_leaf=5, bootstrap=False,
                                     tree_method="hist").fit(X, y)
        for a, b in zip(batched.estimators_, hist.estimators_, strict=True):
            assert_trees_equivalent(a.tree_, b.tree_, X)
        np.testing.assert_array_equal(batched.predict(X), hist.predict(X))

    def test_low_cardinality_features_bin_losslessly(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 12, size=(300, 3)).astype(float)
        y = X[:, 0] * 2.0 - X[:, 1] + 0.1 * rng.normal(size=300)
        batched = DecisionTreeRegressor(random_state=0, min_samples_leaf=8,
                                        tree_method="exact").fit(X, y)
        hist = DecisionTreeRegressor(random_state=0, min_samples_leaf=8,
                                     tree_method="hist", max_bins=12).fit(X, y)
        assert_trees_equivalent(batched.tree_, hist.tree_, X)


class TestStatisticalEquivalence:
    """Hist forests match exact forests' held-out R^2 on registry data."""

    @pytest.mark.parametrize("cls", [ExtraTreesRegressor, RandomForestRegressor])
    def test_registry_dataset_r2(self, small_stencil_dataset, cls):
        ds = small_stencil_dataset
        Xtr, Xte, ytr, yte = train_test_split(ds.X, ds.y, test_size=0.3,
                                              random_state=1)
        exact = cls(n_estimators=30, random_state=0).fit(Xtr, ytr)
        hist = cls(n_estimators=30, random_state=0, tree_method="hist").fit(Xtr, ytr)
        r2_exact = r2_score(yte, exact.predict(Xte))
        r2_hist = r2_score(yte, hist.predict(Xte))
        assert r2_exact > 0.5
        assert abs(r2_exact - r2_hist) < 0.05

    def test_fmm_dataset_r2(self, small_fmm_dataset):
        ds = small_fmm_dataset
        Xtr, Xte, ytr, yte = train_test_split(ds.X, ds.y, test_size=0.3,
                                              random_state=1)
        exact = ExtraTreesRegressor(n_estimators=30, random_state=0).fit(Xtr, ytr)
        hist = ExtraTreesRegressor(n_estimators=30, random_state=0,
                                   tree_method="hist").fit(Xtr, ytr)
        assert abs(r2_score(yte, exact.predict(Xte))
                   - r2_score(yte, hist.predict(Xte))) < 0.05

    def test_coarse_bins_still_learn(self, data):
        """Aggressive binning (max_bins=8) exercises the carried-histogram
        subtraction path and still produces a usable model."""
        X, y = data
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=0.25, random_state=0)
        hist = ExtraTreesRegressor(n_estimators=20, random_state=0,
                                   tree_method="hist", max_bins=8).fit(Xtr, ytr)
        assert r2_score(yte, hist.predict(Xte)) > 0.8

    def test_boosting_hist_close_to_exact(self, data):
        X, y = data
        exact = GradientBoostingRegressor(n_estimators=30, random_state=0).fit(X, y)
        hist = GradientBoostingRegressor(n_estimators=30, random_state=0,
                                         tree_method="hist").fit(X, y)
        assert abs(r2_score(y, exact.predict(X)) - r2_score(y, hist.predict(X))) < 0.03

    def test_boosting_hist_subsample(self, data):
        """Stochastic stages exercise the prebinned ``codes[idx]`` path."""
        X, y = data
        hist = GradientBoostingRegressor(n_estimators=25, random_state=0,
                                         subsample=0.7, tree_method="hist").fit(X, y)
        assert r2_score(y, hist.predict(X)) > 0.8


class TestPrebinned:
    """Boosting quantizes once; the prebinned path must change nothing."""

    def test_prebinned_bit_identical(self, data):
        from repro.ml._hist import bin_dataset, build_forest_hist

        X, y = data
        kwargs = dict(sample_sets=[np.arange(X.shape[0])], seeds=[0],
                      splitter="best", max_depth=None, min_samples_split=2,
                      min_samples_leaf=1, max_features=X.shape[1],
                      min_impurity_decrease=0.0)
        plain = build_forest_hist(X, y, **kwargs)[0]
        pre = build_forest_hist(X, y, prebinned=bin_dataset(X, 256), **kwargs)[0]
        assert_trees_identical(plain, pre)

    def test_prebinned_shape_mismatch_rejected(self, data):
        from repro.ml._hist import bin_dataset, build_forest_hist

        X, y = data
        with pytest.raises(ValueError, match="prebinned"):
            build_forest_hist(
                X, y, prebinned=bin_dataset(X[:50], 256),
                sample_sets=[np.arange(X.shape[0])], seeds=[0], splitter="best",
                max_depth=None, min_samples_split=2, min_samples_leaf=1,
                max_features=X.shape[1], min_impurity_decrease=0.0)


class TestHistEngineBehaviour:
    def test_deterministic_given_seed(self, data):
        X, y = data
        a = ExtraTreesRegressor(n_estimators=4, random_state=9,
                                tree_method="hist").fit(X, y)
        b = ExtraTreesRegressor(n_estimators=4, random_state=9,
                                tree_method="hist").fit(X, y)
        for ta, tb in zip(a.estimators_, b.estimators_, strict=True):
            assert_trees_identical(ta.tree_, tb.tree_)

    def test_tree_independent_of_forest_size(self, data):
        X, y = data
        small = ExtraTreesRegressor(n_estimators=2, random_state=0,
                                    tree_method="hist").fit(X, y)
        large = ExtraTreesRegressor(n_estimators=6, random_state=0,
                                    tree_method="hist").fit(X, y)
        for a, b in zip(small.estimators_, large.estimators_[:2], strict=True):
            assert_trees_identical(a.tree_, b.tree_)

    def test_constraints_respected(self, data):
        X, y = data
        model = DecisionTreeRegressor(splitter="random", max_depth=4,
                                      min_samples_leaf=9, random_state=0,
                                      tree_method="hist").fit(X, y)
        assert model.get_depth() <= 4
        _, counts = np.unique(model.apply(X), return_counts=True)
        assert counts.min() >= 9

    def test_min_impurity_decrease_prunes(self, data):
        X, y = data
        loose = DecisionTreeRegressor(random_state=0, tree_method="hist").fit(X, y)
        strict = DecisionTreeRegressor(min_impurity_decrease=1.0, random_state=0,
                                       tree_method="hist").fit(X, y)
        assert strict.get_n_leaves() < loose.get_n_leaves()

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(1).random((30, 3))
        model = DecisionTreeRegressor(tree_method="hist").fit(X, np.full(30, 2.5))
        assert model.get_n_leaves() == 1
        np.testing.assert_allclose(model.predict(X), 2.5)

    def test_constant_features_yield_single_leaf(self):
        X = np.ones((40, 3))
        y = np.random.default_rng(0).normal(size=40)
        model = DecisionTreeRegressor(tree_method="hist").fit(X, y)
        assert model.get_n_leaves() == 1


class TestEngineResolution:
    def test_tree_method_validation(self, data):
        X, y = data
        with pytest.raises(ValueError, match="tree_method"):
            DecisionTreeRegressor(tree_method="fast").fit(X, y)
        with pytest.raises(ValueError, match="tree_method"):
            ExtraTreesRegressor(n_estimators=2, tree_method="fast").fit(X, y)

    def test_params_roundtrip(self):
        model = ExtraTreesRegressor(tree_method="hist", max_bins=64)
        params = model.get_params(deep=False)
        assert params["tree_method"] == "hist" and params["max_bins"] == 64


class TestEvalCellProtocol:
    """Binned trees cross process boundaries through the cell protocol."""

    def test_fitted_hist_forest_pickles(self, data):
        X, y = data
        forest = ExtraTreesRegressor(n_estimators=5, random_state=0,
                                     tree_method="hist").fit(X, y)
        loaded = pickle.loads(pickle.dumps(forest))
        np.testing.assert_array_equal(forest.predict(X), loaded.predict(X))
        np.testing.assert_array_equal(forest.predict_std(X), loaded.predict_std(X))

    def test_estimator_spec_with_tree_method_pickles(self):
        spec = EstimatorSpec("extra_trees", 8, tree_method="hist")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_plan_expands_and_cells_pickle(self):
        plan = experiment_plan("ablation_tree_method", TINY)
        assert plan is not None
        methods = {s.factory.estimator.tree_method for s in plan.series}
        assert methods == {"exact", "hist"}
        cells = expand_cells(plan)
        assert pickle.loads(pickle.dumps(cells)) == cells

    def test_evaluate_cell_with_hist_factory(self, small_stencil_dataset):
        ds = small_stencil_dataset
        spec = experiment_plan("ablation_tree_method", TINY).series[1].factory
        assert spec.estimator.tree_method == "hist"
        factory = build_factory(spec, ds)
        (cell,) = plan_learning_curve([0.2], 1, series="hist", random_state=0)
        result = evaluate_cell(cell, factory, ds)
        assert np.isfinite(result.mape)
        assert pickle.loads(pickle.dumps(result)) == result

    def test_process_executor_bit_identical(self):
        serial = run_experiment("ablation_tree_method", TINY)
        processed = run_experiment("ablation_tree_method", TINY,
                                   executor="process", jobs=2)
        assert processed.rows() == serial.rows()
        assert processed.extra == serial.extra

    def test_serial_thread_identical(self):
        serial = run_experiment("ablation_tree_method", TINY)
        threaded = run_experiment("ablation_tree_method", TINY,
                                  executor="thread", jobs=2)
        assert threaded.rows() == serial.rows()
