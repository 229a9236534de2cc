"""Score calibration: temperature scaling, Platt scaling, and ECE.

Calibrators are fit once on the calibration fold and then only applied.
Both fitters refuse the test fold outright; leakage there would silently
flatter every downstream number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import _sigmoid
from .errors import CalibrationError, NumericsError, ValidationError

_CLAMP = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = np.clip(np.asarray(probs, dtype=np.float64), _CLAMP, 1.0 - _CLAMP)
    labels = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(labels * np.log(probs) + (1.0 - labels) * np.log(1.0 - probs)))


def ece(probs, labels, n_bins: int = 10) -> float:
    """Expected calibration error over equal-width probability bins:
    the prevalence-vs-mean-score gap, weighted by bin occupancy."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.shape != labels.shape or probs.ndim != 1:
        raise ValidationError("probs and labels must be 1-D and aligned")
    if len(probs) == 0:
        raise ValidationError("ECE needs at least one prediction")
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise ValidationError("probabilities must lie in [0, 1]")
    bins = np.minimum((probs * n_bins).astype(int), n_bins - 1)
    total = 0.0
    for b in range(n_bins):
        mask = bins == b
        count = int(mask.sum())
        if count:
            total += (count / len(probs)) * abs(labels[mask].mean() - probs[mask].mean())
    return float(total)


@dataclass
class Calibrator:
    """A fitted monotone map from raw margins/logits to probabilities;
    `Calibrator(**obj)` rebuilds one from its `to_json_obj`."""

    kind: str  # temperature | platt
    temperature: float | None = None
    a: float | None = None
    b: float | None = None
    fitted_on: str = "calibration"
    stats: dict = field(default_factory=dict)
    warning: str | None = None

    def apply(self, raw) -> np.ndarray:
        raw = np.asarray(raw, dtype=np.float64)
        if self.kind == "temperature":
            return _sigmoid(raw / self.temperature)
        if self.kind == "platt":
            return _sigmoid(self.a * raw + self.b)
        raise ValidationError(f"unknown calibrator kind {self.kind!r}")

    def to_json_obj(self) -> dict:
        return asdict(self)


def _guard_fold(fold: str) -> None:
    if fold == "test":
        raise CalibrationError("refusing to fit a calibrator on the test fold")


def _fit_stats(raw: np.ndarray, labels: np.ndarray, calibrator: Calibrator) -> None:
    before = _sigmoid(raw)
    after = calibrator.apply(raw)
    calibrator.stats = {
        "n": int(len(raw)),
        "nll_before": nll(before, labels),
        "nll_after": nll(after, labels),
        "ece_before": ece(before, labels),
        "ece_after": ece(after, labels),
    }


def fit_temperature(
    logits,
    labels,
    fold: str = "calibration",
    bounds: tuple[float, float] = (0.05, 20.0),
    tol: float = 1e-4,
) -> Calibrator:
    """Golden-section search for the temperature minimizing NLL of
    sigmoid(logit / T). Falls back to T=1 if no temperature beats it, so
    calibration never worsens the fold it was fit on."""
    _guard_fold(fold)
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape or logits.ndim != 1 or len(logits) == 0:
        raise ValidationError("logits and labels must be 1-D, aligned, and non-empty")
    if labels.min() == labels.max():
        calibrator = Calibrator(
            kind="temperature",
            temperature=1.0,
            fitted_on=fold,
            warning="calibration fold holds a single class; temperature left at 1",
        )
        _fit_stats(logits, labels, calibrator)
        return calibrator

    def objective(t: float) -> float:
        return nll(_sigmoid(logits / t), labels)

    lo, hi = bounds
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)
    temperature = 0.5 * (lo + hi)
    if objective(temperature) > objective(1.0):
        temperature = 1.0
    calibrator = Calibrator(kind="temperature", temperature=float(temperature), fitted_on=fold)
    _fit_stats(logits, labels, calibrator)
    return calibrator


def _unit_platt(scores: np.ndarray, labels: np.ndarray, fold: str, reason: str) -> Calibrator:
    """The map a = 1, b = 0, with `reason` in its warning."""
    calibrator = Calibrator(kind="platt", a=1.0, b=0.0, fitted_on=fold,
                            warning=f"{reason}; Platt map left at a = 1, b = 0")
    _fit_stats(scores, labels, calibrator)
    return calibrator


def fit_platt(
    scores,
    labels,
    fold: str = "calibration",
    max_iter: int = 100,
    tol: float = 1e-8,
) -> Calibrator:
    """Newton fit of p = sigmoid(a*s + b) against smoothed targets
    (N+ + 1)/(N+ + 2) and 1/(N- + 2), run to gradient norm <= tol. A fold
    of one class, or a fitted slope a <= 0 (which would reverse the ranking
    and so every AUC), leaves the map at a = 1, b = 0 and says so in
    `warning`, as `fit_temperature` leaves T at 1."""
    _guard_fold(fold)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1 or len(scores) == 0:
        raise ValidationError("scores and labels must be 1-D, aligned, and non-empty")
    n_pos = float(labels.sum())
    n_neg = float(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        return _unit_platt(scores, labels, fold, "calibration fold holds a single class")
    t_pos = (n_pos + 1.0) / (n_pos + 2.0)
    t_neg = 1.0 / (n_neg + 2.0)
    targets = np.where(labels == 1, t_pos, t_neg)

    def loss_at(a: float, b: float) -> float:
        p = np.clip(_sigmoid(a * scores + b), _CLAMP, 1.0 - _CLAMP)
        return float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))

    a, b = 1.0, 0.0
    current = loss_at(a, b)
    grad_norm = math.inf
    for _ in range(max_iter):
        p = _sigmoid(a * scores + b)
        residual = p - targets
        grad = np.array([float(residual @ scores), float(residual.sum())]) / len(scores)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            break
        w = p * (1.0 - p)
        hess = (
            np.array(
                [
                    [float((w * scores) @ scores), float(w @ scores)],
                    [float(w @ scores), float(w.sum())],
                ]
            )
            / len(scores)
        )
        hess[0, 0] += 1e-12
        hess[1, 1] += 1e-12
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(30):
            na, nb = a - scale * step[0], b - scale * step[1]
            value = loss_at(na, nb)
            if value <= current:
                a, b, current = na, nb, value
                break
            scale *= 0.5
        else:
            raise NumericsError("Platt line search failed to improve")
    else:
        p = _sigmoid(a * scores + b)
        grad_norm = float(
            np.linalg.norm(np.array([float((p - targets) @ scores), float((p - targets).sum())]) / len(scores))
        )
    if grad_norm > tol:
        raise NumericsError(f"Platt scaling stopped at gradient norm {grad_norm:.3e} > {tol:.0e}")
    if a <= 0.0:
        return _unit_platt(scores, labels, fold, f"fitted Platt slope a = {a:.6g} <= 0 would reverse the ranking")
    calibrator = Calibrator(kind="platt", a=float(a), b=float(b), fitted_on=fold)
    _fit_stats(scores, labels, calibrator)
    return calibrator
