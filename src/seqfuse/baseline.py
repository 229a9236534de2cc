"""Logistic regression on flattened sequences: the non-recurrent baseline
and the surrogate model behind feature importance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .features import EventTable


@dataclass
class FlatTable:
    """Sequences collapsed to fixed-width rows: per CCS category a step
    count and a step fraction, then the domain vector."""

    matrix: np.ndarray
    names: list[str]
    categories: list[str]


def flatten(table: EventTable, n_dx_columns: int, n_proc_columns: int, z_names: list[str]) -> FlatTable:
    """One row per event: per input column the number of steps holding it
    and that count over the event's step count, then z.

    When both an index and z are wrong, the z error is the one raised.
    """
    n = len(table)
    if n == 0:
        raise ValidationError("no sequences to flatten")
    if table.z.shape[1] != len(z_names):
        raise ValidationError("domain vector width does not match its name list")
    indices = table.indices
    input_dim = n_dx_columns + n_proc_columns
    outside = (indices < 0) | (indices >= input_dim)
    if outside.any():
        raise ValidationError(f"sequence index {indices[outside][0]} outside input dim {input_dim}")
    n_steps = np.diff(table.step_ptr)
    index_event = np.repeat(np.repeat(np.arange(n), n_steps), np.diff(table.idx_ptr))
    counts = np.bincount(index_event * input_dim + indices, minlength=n * input_dim)
    counts = counts.astype(np.float64).reshape(n, input_dim)
    matrix = np.zeros((n, 2 * input_dim + len(z_names)))
    matrix[:, 0 : 2 * input_dim : 2] = counts
    matrix[:, 1 : 2 * input_dim : 2] = counts / n_steps[:, None]
    matrix[:, 2 * input_dim :] = table.z
    names: list[str] = []
    categories: list[str] = []
    for i in range(n_dx_columns):
        label = "other" if i == n_dx_columns - 1 else str(i)
        names.extend([f"dx_ccs_{label}_count", f"dx_ccs_{label}_mean"])
        categories.extend(["ICD9", "ICD9"])
    for j in range(n_proc_columns):
        label = "other" if j == n_proc_columns - 1 else str(j)
        names.extend([f"proc_ccs_{label}_count", f"proc_ccs_{label}_mean"])
        categories.extend(["PROC", "PROC"])
    names.extend(z_names)
    categories.extend(["Domain"] * len(z_names))
    return FlatTable(matrix=matrix, names=names, categories=categories)


@dataclass
class LrModel:
    weights: np.ndarray
    intercept: float
    n_iter: int

    def margins(self, matrix: np.ndarray) -> np.ndarray:
        return matrix @ self.weights + self.intercept


def _nll_l2(margins: np.ndarray, y: np.ndarray, w: np.ndarray, l2: float) -> float:
    # log(1 + exp(-m*s)) with the stable split, s = +/-1.
    signed = np.where(y == 1, margins, -margins)
    loss = np.logaddexp(0.0, -signed).mean()
    return float(loss + 0.5 * l2 * (w @ w))


_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-8


def train_lr(matrix: np.ndarray, labels: np.ndarray, l2: float) -> LrModel:
    """Damped-Newton logistic regression; the intercept is unpenalized. It
    runs until the largest gradient entry is at most `_NEWTON_TOL`, or
    raises NumericsError after `_NEWTON_MAX_ITER` steps.

    Expects standardized columns (fit on the training fold). An all-zero
    column, the residue of a constant input, has zero gradient and a
    diagonal Hessian row at weight zero, so Newton never moves it: the
    system is solved over the live columns only, and every all-zero column
    gets weight exactly 0.0. The Hessian is formed as S'S with
    S = X diag(sqrt(p (1 - p))), a product numpy hands to BLAS `syrk`,
    which computes one triangle: half the flops of X' diag(.) X, and
    exactly symmetric. The penalty l2 is taken as given: it is positive
    (the config's `train.lr_grid.l2` rule, or the surrogate's fixed
    value), which keeps separable data bounded.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if matrix.ndim != 2 or matrix.shape[0] != len(y):
        raise ValidationError("matrix rows and labels must align")
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValidationError("labels must be 0/1")
    n, d = matrix.shape
    live = np.flatnonzero((matrix != 0.0).any(axis=0))
    m = len(live)
    aug = np.hstack([matrix[:, live], np.ones((n, 1))])
    theta = np.zeros(m + 1)
    penalty = np.concatenate([np.full(m, l2), [0.0]])
    current = _nll_l2(aug @ theta, y, theta[:m], l2)
    n_iter = 0
    converged = False
    for n_iter in range(1, _NEWTON_MAX_ITER + 1):
        margins = aug @ theta
        p = 1.0 / (1.0 + np.exp(-margins))
        grad = aug.T @ (p - y) / n + penalty * theta
        if np.max(np.abs(grad)) <= _NEWTON_TOL:
            converged = True
            break
        scaled = aug * np.sqrt(p * (1.0 - p))[:, None]
        hess = scaled.T @ scaled / n + np.diag(penalty)
        # The intercept row has no penalty; p (1 - p) > 0 keeps it invertible.
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"Newton system singular at iteration {n_iter}") from exc
        scale = 1.0
        for _ in range(30):
            candidate = theta - scale * step
            value = _nll_l2(aug @ candidate, y, candidate[:m], l2)
            if value <= current:
                theta = candidate
                current = value
                break
            scale *= 0.5
        else:
            raise NumericsError(f"line search failed at iteration {n_iter}")
    else:
        margins = aug @ theta
        p = 1.0 / (1.0 + np.exp(-margins))
        grad = aug.T @ (p - y) / n + penalty * theta
        converged = bool(np.max(np.abs(grad)) <= _NEWTON_TOL)
    if not converged:
        raise NumericsError(f"logistic regression did not converge in {_NEWTON_MAX_ITER} iterations")
    weights = np.zeros(d)
    weights[live] = theta[:m]
    return LrModel(weights=weights, intercept=float(theta[m]), n_iter=n_iter)


def make_lr_runner(matrix: np.ndarray, labels: np.ndarray, fold_idx: dict[str, list[int]]):
    """Grid runner for the flat baseline over {l2, smote} configs.

    Standardization uses training-fold moments, fitted once for every
    trial; oversampling, when enabled, touches only the training fold after
    standardization.
    """
    # `auc` too comes from training, the one name every trial scores through.
    from .training import apply_standardizer, auc, fit_standardizer, smote, smote_neighbors

    labels = np.asarray(labels, dtype=np.int64)
    mean, std = fit_standardizer(matrix[fold_idx["train"]])
    standardized = apply_standardizer(matrix, mean, std)
    # SMOTE's neighbour table depends on the training fold alone: the first
    # SMOTE trial builds it, and every SMOTE trial draws from it.
    neighbors = None

    def run(config: dict, seed: int) -> dict:
        nonlocal neighbors
        x_train = standardized[fold_idx["train"]]
        y_train = labels[fold_idx["train"]]
        try:
            if config["smote"]:
                if neighbors is None:
                    neighbors = smote_neighbors(x_train, y_train)
                x_train, y_train = smote(x_train, y_train, seed=seed, neighbors=neighbors)
            model = train_lr(x_train, y_train, l2=float(config["l2"]))
        except (NumericsError, ValidationError) as exc:
            return {"status": "failed", "failure": str(exc)}
        valid, test = fold_idx["valid"], fold_idx["test"]
        return {
            "status": "ok",
            "valid_auc": auc(model.margins(standardized[valid]), labels[valid]),
            "test_auc": auc(model.margins(standardized[test]), labels[test]),
            "model": model,
            "z_mean": mean,
            "z_std": std,
        }

    return run
