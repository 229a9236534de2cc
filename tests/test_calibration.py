"""Calibration: NLL/ECE oracles, temperature and Platt recovery, and the
hard refusal to fit on the test fold."""

import math
import re

import numpy as np
import pytest

from seqfuse.calibration import Calibrator, ece, fit_platt, fit_temperature, nll
from seqfuse.errors import CalibrationError, ValidationError
from seqfuse.metrics import auc
from tests.reference import ReferenceXoshiro256, reference_sigmoid


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def _bernoulli_world(n: int, seed: int, scale: float = 1.0):
    """Logits and labels drawn from the exactly-calibrated model."""
    rng = ReferenceXoshiro256(seed)
    logits = np.array([rng.normal() * 1.5 for _ in range(n)])
    labels = np.array([float(rng.bernoulli(p)) for p in _sigmoid(logits)])
    return logits * scale, labels


class TestNll:
    def test_hand_value(self):
        expected = -(math.log(0.8) + math.log(0.7)) / 2.0
        assert nll([0.8, 0.3], [1.0, 0.0]) == pytest.approx(expected, rel=1e-12)

    def test_extreme_probabilities_are_clamped(self):
        assert math.isfinite(nll([0.0, 1.0], [1.0, 0.0]))


class TestEce:
    def test_hand_oracle(self):
        """Three points in bins 0, 1, and 9 of a 10-bin grid, each holding
        a third of the mass."""
        probs = [0.05, 0.15, 0.95]
        labels = [0.0, 1.0, 1.0]
        expected = (abs(0.0 - 0.05) + abs(1.0 - 0.15) + abs(1.0 - 0.95)) / 3.0
        assert ece(probs, labels) == pytest.approx(expected, rel=1e-12)

    def test_bin_aggregation(self):
        """Two points share a bin: the gap uses their means, not per-point
        differences."""
        probs = [0.62, 0.68, 0.05]
        labels = [1.0, 0.0, 0.0]
        expected = (2 / 3) * abs(0.5 - 0.65) + (1 / 3) * abs(0.0 - 0.05)
        assert ece(probs, labels) == pytest.approx(expected, rel=1e-12)

    def test_probability_one_lands_in_the_last_bin(self):
        assert ece([1.0], [1.0]) == 0.0

    def test_perfectly_calibrated_bins_score_zero(self):
        probs = [0.25, 0.25, 0.25, 0.25]
        labels = [1.0, 0.0, 0.0, 0.0]
        assert ece(probs, labels) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            ece([0.5], [1.0, 0.0])
        with pytest.raises(ValidationError):
            ece([], [])
        with pytest.raises(ValidationError):
            ece([1.5], [1.0])


class TestCalibratorApply:
    def test_temperature_map(self):
        cal = Calibrator(kind="temperature", temperature=2.0)
        np.testing.assert_allclose(cal.apply([2.0, -4.0]), _sigmoid([1.0, -2.0]))

    def test_platt_map(self):
        cal = Calibrator(kind="platt", a=0.5, b=-1.0)
        np.testing.assert_allclose(cal.apply([4.0]), _sigmoid([1.0]))

    def test_unknown_kind_rejected(self):
        for kind in ("isotonic", "identity"):
            with pytest.raises(ValidationError):
                Calibrator(kind=kind).apply([0.5])

    def test_json_round_trip(self):
        cal = Calibrator(
            kind="platt", a=1.25, b=-0.5, fitted_on="calibration",
            stats={"n": 10, "nll_before": 0.7}, warning=None,
        )
        again = Calibrator(**cal.to_json_obj())
        assert again == cal


class TestFitTemperature:
    def test_recovers_a_planted_temperature(self):
        """Labels follow sigmoid(l); fitting on 3*l must undo the scaling."""
        logits, labels = _bernoulli_world(3000, seed=5, scale=3.0)
        cal = fit_temperature(logits, labels)
        assert 2.7 <= cal.temperature <= 3.3

    def test_never_hurts_nll_on_its_own_fold(self):
        for seed in range(6):
            logits, labels = _bernoulli_world(200, seed=100 + seed, scale=1.0 + seed)
            if labels.min() == labels.max():
                continue
            cal = fit_temperature(logits, labels)
            assert cal.stats["nll_after"] <= cal.stats["nll_before"] + 1e-12

    def test_preserves_ranking_hence_auc(self):
        logits, labels = _bernoulli_world(500, seed=9, scale=2.0)
        cal = fit_temperature(logits, labels)
        assert auc(cal.apply(logits), labels) == auc(logits, labels)

    def test_single_class_falls_back_with_warning(self):
        cal = fit_temperature([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert cal.temperature == 1.0
        assert "single class" in cal.warning

    def test_refuses_the_test_fold(self):
        with pytest.raises(CalibrationError):
            fit_temperature([1.0, -1.0], [1.0, 0.0], fold="test")

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            fit_temperature([], [])
        with pytest.raises(ValidationError):
            fit_temperature([1.0, 2.0], [1.0])


class TestFitPlatt:
    def test_recovers_identity_on_calibrated_scores(self):
        scores, labels = _bernoulli_world(3000, seed=15)
        cal = fit_platt(scores, labels)
        assert abs(cal.a - 1.0) <= 0.1
        assert abs(cal.b - 0.0) <= 0.1

    def test_recovers_a_planted_affine_map(self):
        rng = ReferenceXoshiro256(17)
        scores = np.array([rng.normal() * 2 for _ in range(4000)])
        labels = np.array([float(rng.bernoulli(p)) for p in _sigmoid(0.7 * scores - 0.4)])
        cal = fit_platt(scores, labels)
        assert abs(cal.a - 0.7) <= 0.1
        assert abs(cal.b + 0.4) <= 0.1

    def test_stats_report_both_sides(self):
        scores, labels = _bernoulli_world(400, seed=19, scale=2.5)
        cal = fit_platt(scores, labels)
        assert cal.stats["n"] == 400
        assert cal.stats["nll_after"] <= cal.stats["nll_before"] + 1e-9

    def test_single_class_falls_back_with_warning(self):
        scores = np.array([0.2, -0.4, 1.5])
        for label in (0.0, 1.0):
            cal = fit_platt(scores, np.full(3, label))
            assert (cal.kind, cal.a, cal.b) == ("platt", 1.0, 0.0)
            assert "single class" in cal.warning
            assert Calibrator(**cal.to_json_obj()).warning == cal.warning
            assert cal.apply(scores).tolist() == reference_sigmoid(scores).tolist()
            assert cal.stats["n"] == 3 and cal.stats["nll_after"] == cal.stats["nll_before"]

    def test_a_reversing_slope_keeps_the_identity_map(self):
        """Scores anti-correlated with the labels fit a slope below 0, which
        would turn the calibrated AUC into 1 - AUC: the map stays a = 1,
        b = 0, so the calibrated AUC is the raw one, and the warning names
        the slope."""
        rng = ReferenceXoshiro256(23)
        scores = np.array([rng.normal() * 2 for _ in range(1000)])
        labels = np.array([float(rng.bernoulli(p)) for p in _sigmoid(-0.8 * scores)])
        raw_auc = auc(scores, labels)
        assert raw_auc < 0.5
        cal = fit_platt(scores, labels)
        assert (cal.kind, cal.a, cal.b) == ("platt", 1.0, 0.0)
        assert auc(cal.apply(scores), labels) == raw_auc
        slope = float(re.search(r"slope a = (\S+) <= 0", cal.warning).group(1))
        assert -1.0 < slope < -0.6
        assert cal.warning.endswith("Platt map left at a = 1, b = 0")
        assert Calibrator(**cal.to_json_obj()).warning == cal.warning
        assert cal.stats["nll_after"] == cal.stats["nll_before"]

    def test_refuses_the_test_fold(self):
        with pytest.raises(CalibrationError):
            fit_platt([1.0, -1.0], [1.0, 0.0], fold="test")

    def test_smoothed_targets_keep_probabilities_interior(self):
        """Separable scores: raw ML would push a to infinity, the smoothed
        targets keep it finite."""
        scores = np.array([-3.0, -2.0, 2.0, 3.0])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        cal = fit_platt(scores, labels)
        assert math.isfinite(cal.a) and math.isfinite(cal.b)
        probs = cal.apply(scores)
        assert probs.min() > 0.0 and probs.max() < 1.0
