"""Tests for repro.core.evaluation."""

import random

import numpy as np
import pytest

from repro.core.evaluation import (
    LearningCurve,
    LearningCurvePoint,
    evaluate_cell,
    evaluate_learning_curve,
    merge_cell_results,
    plan_learning_curve,
)
from repro.ml import ExtraTreesRegressor, Pipeline, StandardScaler


def _et_factory(seed):
    return Pipeline(steps=[("s", StandardScaler()),
                           ("m", ExtraTreesRegressor(n_estimators=8, random_state=seed))])


class TestLearningCurveContainers:
    def test_point_statistics(self):
        point = LearningCurvePoint(fraction=0.1, n_train=10, mapes=[10.0, 20.0, 30.0])
        assert point.mean == pytest.approx(20.0)
        assert point.std == pytest.approx(np.std([10.0, 20.0, 30.0]))
        assert point.min == 10.0 and point.max == 30.0

    def test_curve_lookup_and_rows(self):
        curve = LearningCurve(label="m", points=[
            LearningCurvePoint(fraction=0.1, n_train=5, mapes=[5.0]),
            LearningCurvePoint(fraction=0.2, n_train=10, mapes=[3.0]),
        ])
        assert curve.mape_at(0.2) == 3.0
        assert curve.fractions == [0.1, 0.2]
        assert curve.means == [5.0, 3.0]
        rows = curve.as_rows()
        assert rows[0]["series"] == "m" and rows[1]["mape_mean"] == 3.0
        with pytest.raises(KeyError):
            curve.mape_at(0.5)


class TestEvaluateLearningCurve:
    def test_structure(self, small_stencil_dataset):
        curve = evaluate_learning_curve(
            _et_factory, small_stencil_dataset,
            fractions=[0.05, 0.2], n_repeats=2, label="et", random_state=0)
        assert curve.label == "et"
        assert len(curve.points) == 2
        assert all(len(p.mapes) == 2 for p in curve.points)
        assert curve.points[0].n_train < curve.points[1].n_train

    def test_mape_decreases_with_more_data(self, small_stencil_dataset):
        curve = evaluate_learning_curve(
            _et_factory, small_stencil_dataset,
            fractions=[0.03, 0.4], n_repeats=2, random_state=0)
        assert curve.points[1].mean < curve.points[0].mean

    def test_deterministic(self, small_stencil_dataset):
        kwargs = dict(fractions=[0.1], n_repeats=2, random_state=5)
        c1 = evaluate_learning_curve(_et_factory, small_stencil_dataset, **kwargs)
        c2 = evaluate_learning_curve(_et_factory, small_stencil_dataset, **kwargs)
        assert c1.points[0].mapes == c2.points[0].mapes

    def test_invalid_arguments(self, small_stencil_dataset):
        with pytest.raises(ValueError):
            evaluate_learning_curve(_et_factory, small_stencil_dataset,
                                    fractions=[], n_repeats=1)
        with pytest.raises(ValueError):
            evaluate_learning_curve(_et_factory, small_stencil_dataset,
                                    fractions=[0.1], n_repeats=0)

    def test_n_train_matches_actual_split_size(self, small_stencil_dataset):
        """Regression: n_train must equal the (repeat-invariant) split size,
        recorded from the first repeat, not overwritten by the last one."""
        dataset = small_stencil_dataset
        fraction = 0.1
        curve = evaluate_learning_curve(
            _et_factory, dataset, fractions=[fraction], n_repeats=3, random_state=0)
        expected = int(np.clip(int(round(fraction * dataset.n_samples)),
                               3, dataset.n_samples - 1))
        assert curve.points[0].n_train == expected


class TestCellDecomposition:
    def test_plan_is_deterministic_and_fraction_major(self):
        plan = plan_learning_curve([0.1, 0.2], 3, series="et", random_state=7)
        again = plan_learning_curve([0.1, 0.2], 3, series="et", random_state=7)
        assert plan == again
        assert len(plan) == 6
        assert [(c.fraction, c.repeat) for c in plan] == [
            (0.1, 0), (0.1, 1), (0.1, 2), (0.2, 0), (0.2, 1), (0.2, 2)]
        assert len({c.seed for c in plan}) == 6

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            plan_learning_curve([], 1)
        with pytest.raises(ValueError):
            plan_learning_curve([0.1], 0)

    def test_evaluate_cell_is_pure(self, small_stencil_dataset):
        cell = plan_learning_curve([0.1], 1, series="et", random_state=3)[0]
        first = evaluate_cell(cell, _et_factory, small_stencil_dataset)
        second = evaluate_cell(cell, _et_factory, small_stencil_dataset)
        assert first == second
        assert first.series == "et" and first.repeat == 0

    def test_merge_is_order_independent(self, small_stencil_dataset):
        plan = plan_learning_curve([0.05, 0.15], 2, series="et", random_state=0)
        results = [evaluate_cell(c, _et_factory, small_stencil_dataset) for c in plan]
        reference = merge_cell_results(plan, results)
        shuffled = list(results)
        random.Random(4).shuffle(shuffled)
        merged = merge_cell_results(plan, shuffled)
        assert merged.label == reference.label
        assert [(p.fraction, p.n_train, p.mapes) for p in merged.points] == \
               [(p.fraction, p.n_train, p.mapes) for p in reference.points]

    def test_merge_matches_serial_evaluation(self, small_stencil_dataset):
        curve = evaluate_learning_curve(
            _et_factory, small_stencil_dataset,
            fractions=[0.05, 0.15], n_repeats=2, label="et", random_state=0)
        plan = plan_learning_curve([0.05, 0.15], 2, series="et", random_state=0)
        results = [evaluate_cell(c, _et_factory, small_stencil_dataset) for c in plan]
        merged = merge_cell_results(plan, results)
        assert [p.mapes for p in merged.points] == [p.mapes for p in curve.points]

    def test_merge_missing_result_raises(self, small_stencil_dataset):
        plan = plan_learning_curve([0.1], 2, series="et", random_state=0)
        results = [evaluate_cell(plan[0], _et_factory, small_stencil_dataset)]
        with pytest.raises(ValueError, match="missing result"):
            merge_cell_results(plan, results)
        with pytest.raises(ValueError):
            merge_cell_results([], [])
