"""Discrimination metrics against brute-force oracles and hand examples."""

from types import SimpleNamespace

import numpy as np
import pytest

from seqfuse.errors import MetricUndefinedError, ValidationError
from seqfuse.metrics import (
    auc,
    recall_at_top_k,
    recall_precision_at_threshold,
    subgroup_report,
    surrogate_importance,
)
from tests.reference import ReferenceXoshiro256, reference_auc


def pairwise_auc(scores, labels) -> float:
    """O(n_pos * n_neg) definition: wins plus half-credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_hand_example(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        assert auc(scores, labels) == 0.75

    def test_tie_gets_half_credit(self):
        assert auc([0.5, 0.5], [1, 0]) == 0.5
        # Pairs: (.5,.2)=1, (.5,.5)=.5, (.9,.2)=1, (.9,.5)=1 -> 3.5/4.
        assert auc([0.2, 0.5, 0.5, 0.9], [0, 0, 1, 1]) == 0.875

    def test_degenerate_extremes(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert auc([0.9, 0.1], [0, 1]) == 0.0
        assert auc([0.4, 0.4, 0.4], [1, 0, 1]) == 0.5

    def test_matches_pairwise_oracle_with_ties(self):
        """Random score sets, quantized so ties occur often."""
        rng = ReferenceXoshiro256(2024)
        for _ in range(200):
            n = 2 + rng.randint(0, 38)
            scores = np.array([rng.randint(0, 9) / 9.0 for _ in range(n)])
            labels = np.array([rng.bernoulli(0.4) for _ in range(n)], dtype=np.int64)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            expected = pairwise_auc(scores, labels)
            assert abs(auc(scores, labels) - expected) <= 1e-12

    def test_equals_the_scalar_midrank_scan_bitwise(self):
        """Heavily tied scores: a few levels, runs at both ends, one run
        over everything, and signed zeros, which compare equal."""
        rng = ReferenceXoshiro256(77)
        cases = [
            (np.zeros(9), np.array([0, 1] * 4 + [1])),
            (np.array([-0.0, 0.0, 0.0, -0.0, 1.0]), np.array([1, 0, 1, 0, 0])),
        ]
        for _ in range(300):
            n = 2 + rng.randint(0, 400)
            levels = 1 + rng.randint(0, 5)
            scores = np.array([rng.randint(0, levels) / levels for _ in range(n)])
            labels = np.array([rng.bernoulli(0.3) for _ in range(n)], dtype=np.int64)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            cases.append((scores, labels))
        for scores, labels in cases:
            expected = reference_auc(scores, labels)
            assert np.float64(auc(scores, labels)).tobytes() == np.float64(expected).tobytes()

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc([0.1, 0.9], [1, 1])
        with pytest.raises(MetricUndefinedError):
            auc([0.1, 0.9], [0, 0])

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            auc([0.1, 0.9], [0, 2])
        with pytest.raises(ValidationError):
            auc([[0.1], [0.9]], [0, 1])
        with pytest.raises(ValidationError):
            auc([0.1, 0.9, 0.5], [0, 1])


class TestRecallPrecisionAtThreshold:
    def test_hand_example(self):
        scores = [0.9, 0.6, 0.4, 0.2]
        labels = [1, 0, 1, 0]
        recall, precision = recall_precision_at_threshold(scores, labels, threshold=0.5)
        assert recall == 0.5  # one of two positives above 0.5
        assert precision == 0.5  # one true positive of two predicted

    def test_threshold_is_inclusive(self):
        recall, precision = recall_precision_at_threshold([0.5], [1], threshold=0.5)
        assert recall == 1.0 and precision == 1.0

    def test_no_predictions_gives_none_precision(self):
        recall, precision = recall_precision_at_threshold([0.1, 0.2], [1, 0], threshold=0.9)
        assert recall == 0.0
        assert precision is None

    def test_no_positives_undefined(self):
        with pytest.raises(MetricUndefinedError):
            recall_precision_at_threshold([0.9, 0.1], [0, 0], threshold=0.5)


class TestRecallAtTopK:
    def test_hand_example(self):
        scores = [0.9, 0.1, 0.8, 0.3]
        labels = [1, 1, 0, 0]
        assert recall_at_top_k(scores, labels, k=1) == 0.5
        assert recall_at_top_k(scores, labels, k=2) == 0.5
        assert recall_at_top_k(scores, labels, k=4) == 1.0

    def test_tie_broken_by_input_position(self):
        scores = [0.9, 0.5, 0.5, 0.1]
        assert recall_at_top_k(scores, [0, 1, 0, 0], k=2) == 1.0
        assert recall_at_top_k(scores, [0, 0, 1, 0], k=2) == 0.0

    def test_k_equals_n_captures_everything(self):
        rng = ReferenceXoshiro256(7)
        scores = [rng.random() for _ in range(20)]
        labels = [1, 0] * 10
        assert recall_at_top_k(scores, labels, k=20) == 1.0

    def test_k_bounds_enforced(self):
        with pytest.raises(ValidationError):
            recall_at_top_k([0.5, 0.6], [0, 1], k=0)
        with pytest.raises(ValidationError):
            recall_at_top_k([0.5, 0.6], [0, 1], k=3)

    def test_no_positives_undefined(self):
        with pytest.raises(MetricUndefinedError):
            recall_at_top_k([0.5, 0.6], [0, 0], k=1)


class TestSubgroupReport:
    def _world(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1, 0.7, 0.3])
        labels = np.array([1, 1, 0, 0, 0, 1])
        groups = {
            "site": ["a", "a", "a", "b", "b", "b"],
            "band": ["x", "x", "x", "x", "x", "y"],
        }
        return scores, labels, groups

    def test_rows_cover_every_group_in_order(self):
        scores, labels, groups = self._world()
        rows = subgroup_report(scores, labels, groups, n_min=3, threshold=0.5)
        keys = [(r["partition"], r["group"]) for r in rows]
        assert keys == [("band", "x"), ("band", "y"), ("site", "a"), ("site", "b")]
        by_partition = {}
        for r in rows:
            by_partition.setdefault(r["partition"], 0)
            by_partition[r["partition"]] += r["n"]
        assert by_partition == {"band": 6, "site": 6}

    def test_group_metrics_match_direct_computation(self):
        scores, labels, groups = self._world()
        rows = {(r["partition"], r["group"]): r for r in subgroup_report(scores, labels, groups, n_min=50, threshold=0.5)}
        site_a = rows[("site", "a")]
        assert site_a["n"] == 3
        assert site_a["prevalence"] == pytest.approx(2 / 3)
        assert site_a["auc"] == auc(scores[:3], labels[:3])
        assert site_a["recall"] == 1.0

    def test_single_class_group_reports_none(self):
        scores, labels, groups = self._world()
        rows = {(r["partition"], r["group"]): r for r in subgroup_report(scores, labels, groups, n_min=50, threshold=0.5)}
        band_y = rows[("band", "y")]  # one event, label 1
        assert band_y["auc"] is None
        assert band_y["recall"] == 0.0  # the 0.3 score misses threshold 0.5

    def test_small_groups_flagged_not_dropped(self):
        scores, labels, groups = self._world()
        rows = subgroup_report(scores, labels, groups, n_min=4, threshold=0.5)
        flags = {(r["partition"], r["group"]): r["small_n"] for r in rows}
        assert flags[("band", "x")] is False
        assert flags[("band", "y")] is True
        assert flags[("site", "a")] is True

    def test_partition_length_must_match(self):
        scores, labels, _ = self._world()
        with pytest.raises(ValidationError):
            subgroup_report(scores, labels, {"site": ["a", "b"]}, n_min=50, threshold=0.5)


class TestSurrogateImportance:
    def test_recovers_the_planted_driver(self):
        """The model only looks at column 0; the surrogate must rank it
        first with a positive weight."""
        rng = ReferenceXoshiro256(11)
        n = 400
        matrix = np.array([[rng.normal() for _ in range(4)] for _ in range(n)])
        model_scores = 1.0 / (1.0 + np.exp(-3.0 * matrix[:, 0]))
        rows = surrogate_importance(
            matrix, ["f0", "f1", "f2", "f3"], ["A", "B", "B", "C"], model_scores, threshold=0.5
        )
        assert rows[0]["feature"] == "f0"
        assert rows[0]["category"] == "A"
        assert rows[0]["importance"] > 0
        assert abs(rows[0]["importance"]) > 3 * abs(rows[1]["importance"])

    def test_sorted_by_absolute_weight(self):
        rng = ReferenceXoshiro256(13)
        n = 300
        matrix = np.array([[rng.normal() for _ in range(3)] for _ in range(n)])
        model_scores = 1.0 / (1.0 + np.exp(-(2.0 * matrix[:, 1] - 1.5 * matrix[:, 2])))
        rows = surrogate_importance(matrix, ["a", "b", "c"], ["x", "x", "x"], model_scores, threshold=0.5)
        magnitudes = [abs(r["importance"]) for r in rows]
        assert magnitudes == sorted(magnitudes, reverse=True)
        assert rows[0]["feature"] == "b"
        assert rows[1]["feature"] == "c"
        assert rows[1]["importance"] < 0

    def test_weights_that_print_alike_sort_by_name(self, monkeypatch):
        """Complementary one-hot columns get weights equal up to rounding;
        their order must not hang on bits below the printed six decimals."""
        weights = np.array([0.1, 0.30000001, -0.30000004])
        monkeypatch.setattr("seqfuse.baseline.train_lr", lambda x, y, l2: SimpleNamespace(weights=weights))
        matrix = np.arange(12.0).reshape(4, 3)
        rows = surrogate_importance(matrix, ["c", "gender=female", "gender=male"], ["x"] * 3, [0.9, 0.1, 0.9, 0.1], threshold=0.5)
        assert [r["feature"] for r in rows] == ["gender=female", "gender=male", "c"]

    def test_single_class_predictions_undefined(self):
        matrix = np.ones((10, 2))
        with pytest.raises(MetricUndefinedError):
            surrogate_importance(matrix, ["a", "b"], ["x", "x"], np.full(10, 0.9), threshold=0.5)

    def test_shape_validation(self):
        matrix = np.zeros((5, 2))
        with pytest.raises(ValidationError):
            surrogate_importance(matrix, ["a"], ["x"], np.zeros(5), threshold=0.5)
        with pytest.raises(ValidationError):
            surrogate_importance(matrix, ["a", "b"], ["x", "x"], np.zeros(4), threshold=0.5)
