"""Folds, oversampling, the training loop, and hyperparameter search.

Splitting is patient-level and stratified by each patient's count of
positive events (0, 1, 2+), with largest-remainder rounding so every fold
lands within one patient of its exact share. All shuffling and trial seeds
derive from one root seed, and grid results are ranked by validation AUC
with the config hash as the tiebreak, so search output is independent of
execution order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, Sgd, Tape, backward
from .errors import MetricUndefinedError, NumericsError, ValidationError
from .features import EventTable
from .metrics import auc
from .model import ModelConfig, SeqFuseModel, random_embedding
from .rng import Xoshiro256, derive_seed, unit_floats

FOLD_NAMES = ("train", "valid", "calibration", "test")
DEFAULT_FRACTIONS = (0.70, 0.15, 0.05, 0.10)
# The working memory of SMOTE's neighbour search, in bytes: half for the
# filter's (rows, n_min) blocks of distance bounds, half for the
# refinement's (pairs, d) differences. At least one row or pair is taken
# per block. A brute-force search forms (n_min, n_min, d) differences:
# 366 MB at 2,000 patients, 35.5 GiB at 20,000.
_SMOTE_BLOCK_BYTES = 8 << 20


def split_patients(
    positive_events: dict[str, int],
    seed: int,
    fractions: tuple[float, float, float, float] = DEFAULT_FRACTIONS,
) -> tuple[dict[str, list[str]], list[str]]:
    """Assigns each patient to one fold, stratified by 0/1/2+ positives.

    Within a stratum, patients are shuffled and quotas are filled by
    largest remainder, so each fold holds floor or ceil of its exact share.
    Returns the fold lists and warnings for empty strata.
    """
    if len(fractions) != len(FOLD_NAMES):
        raise ValidationError(f"need {len(FOLD_NAMES)} fractions, got {len(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
        raise ValidationError("fold fractions must be non-negative and sum to 1")
    strata: dict[int, list[str]] = {0: [], 1: [], 2: []}
    for pid in sorted(positive_events):
        strata[min(positive_events[pid], 2)].append(pid)
    folds: dict[str, list[str]] = {name: [] for name in FOLD_NAMES}
    warnings: list[str] = []
    for stratum, ids in sorted(strata.items()):
        if not ids:
            warnings.append(f"stratum {stratum} is empty")
            continue
        rng = Xoshiro256(derive_seed(seed, "split", stratum))
        rng.shuffle(ids)
        n = len(ids)
        exact = [n * f for f in fractions]
        counts = [int(e) for e in exact]
        leftover = n - sum(counts)
        by_remainder = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - counts[i]), i))
        for i in by_remainder[:leftover]:
            counts[i] += 1
        start = 0
        for name, count in zip(FOLD_NAMES, counts):
            folds[name].extend(ids[start : start + count])
            start += count
    for name in FOLD_NAMES:
        folds[name].sort()
    return folds, warnings


def fit_standardizer(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and stds from the training fold only; constant columns
    get std 1 so they standardize to exactly zero."""
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def apply_standardizer(matrix: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (matrix - mean) / std


def _distance_bounds(block: np.ndarray, rows: np.ndarray, sq_block: np.ndarray, sq: np.ndarray):
    """Lower and upper bounds, (len(block), len(rows)) each, on the squared
    distances `_nearest_neighbors` ranks by, from one matrix product:
    approx -/+ delta, where approx = ||a||^2 + ||b||^2 - 2 a.b and
    `sq_block`, `sq` are the rows' squared norms."""
    d = rows.shape[1]
    # With u = 2**-53 and g(m) = m u / (1 - m u), approx and the exact
    # last-axis sum of (a - b)**2 each lie within 2 g(d + 2) (||a||^2 +
    # ||b||^2) of the real ||a - b||^2, in whatever order the matrix
    # product sums (Higham, "Accuracy and Stability of Numerical
    # Algorithms", 2002, sec. 3.1), so they differ by at most
    # 4 g(d + 2) (||a||^2 + ||b||^2). delta is 2**12 times 4 g(d + 3) of
    # the computed norms: the margin covers the norms' own rounding and
    # that of forming the bounds, and `eta` the absolute error of
    # subnormal results, at most 2**-1075 per operation.
    unit = 2.0**-53
    tau = 2.0**12 * 4 * (d + 3) * unit / (1 - (d + 3) * unit)
    eta = (4 * d + 8) * 2.0**-1074
    approx = sq_block[:, None] + sq - 2.0 * (block @ rows.T)
    delta = (tau * sq_block + eta)[:, None] + tau * sq
    lower = approx - delta
    approx += delta
    return lower, approx


def _nearest_neighbors(rows: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest other rows by squared Euclidean
    distance, ties broken by index, where a distance is the last-axis sum
    of `(a - b) ** 2`: the brute-force search's value, bit for bit.

    A filter bounds every distance from one matrix product per block of
    rows (`_distance_bounds`). Each row keeps as candidates the j whose
    lower bound is at most the k-th smallest upper bound: the k nearest
    rows' distances are at most the k-th smallest distance, which is at
    most that k-th upper bound, and each distance is at least its lower
    bound, so all k are candidates. The refinement computes each
    candidate's exact distance and orders the candidates by (distance,
    index). Both parts are blocked so that, even when every pair is a
    candidate (all rows far from the origin, or all equal), the search
    holds about `_SMOTE_BLOCK_BYTES` besides its input and the (n, k)
    result.
    """
    n = len(rows)
    sq = (rows * rows).sum(axis=1)
    # Half the budget for a block's four (rows, n) float64 or intp arrays.
    block_rows = max(1, _SMOTE_BLOCK_BYTES // (2 * 4 * 8 * n))
    return np.concatenate(
        [_block_neighbors(rows, sq, start, start + block_rows, k) for start in range(0, n, block_rows)]
    )


def _block_neighbors(rows: np.ndarray, sq: np.ndarray, start: int, stop: int, k: int) -> np.ndarray:
    """`_nearest_neighbors` for rows[start:stop], with `sq` the squared
    norms of `rows`."""
    block = rows[start:stop]
    self_pairs = (np.arange(len(block)), np.arange(start, start + len(block)))
    lower, upper = _distance_bounds(block, rows, sq[start:stop], sq)
    upper[self_pairs] = np.inf
    kth_upper = np.partition(upper, k - 1, axis=1)[:, k - 1]
    candidate = ~(lower > kth_upper[:, None])
    candidate[self_pairs] = False
    del lower, upper
    i, j = np.nonzero(candidate)
    # The other half of the budget for three (pairs, d) float64 arrays.
    chunk = max(1, _SMOTE_BLOCK_BYTES // (2 * 3 * 8 * rows.shape[1]))
    dist = np.empty(len(i))
    for s in range(0, len(i), chunk):
        dist[s : s + chunk] = ((block[i[s : s + chunk]] - rows[j[s : s + chunk]]) ** 2).sum(axis=1)
    order = np.lexsort((j, dist, i))
    counts = candidate.sum(axis=1)
    first = np.cumsum(counts) - counts
    return j[order[first[:, None] + np.arange(k)]]


def smote(
    features: np.ndarray,
    labels: np.ndarray,
    seed: int,
    k: int = 5,
    target_ratio: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic minority oversampling: new points interpolate between a
    minority row and one of its k nearest minority neighbors.

    Original rows come first, unchanged. With target_ratio 1.0 the classes
    balance exactly. Each new point draws its row, its neighbour's slot and
    its weight, in that order, from one stream. The neighbour table comes
    from `_nearest_neighbors`: it equals a brute-force search's table but
    is built in about `_SMOTE_BLOCK_BYTES` of working memory, not the
    n_min^2 * d floats a brute-force search forms.
    """
    labels = np.asarray(labels)
    if set(np.unique(labels)) - {0, 1}:
        raise ValidationError("labels must be 0/1")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("SMOTE needs both classes present")
    minority = 1 if n_pos < n_neg else 0
    n_min = min(n_pos, n_neg)
    n_new = int(round(target_ratio * max(n_pos, n_neg))) - n_min
    if n_new <= 0:
        return features.copy(), labels.copy()
    if n_min < k + 1:
        raise ValidationError(
            f"SMOTE with k={k} needs at least {k + 1} minority rows, got {n_min}; "
            "lower k or rebalance by duplication"
        )
    rng = Xoshiro256(derive_seed(seed, "smote"))
    rows = features[labels == minority]
    neighbors = _nearest_neighbors(rows, k)
    # Each triple's third size, 0, takes the raw word `random` scales.
    draws = rng.randints(np.tile(np.array([n_min, k, 0], dtype=np.uint64), n_new)).reshape(n_new, 3)
    i, slot = draws[:, 0].astype(np.int64), draws[:, 1].astype(np.int64)
    lam = unit_floats(draws[:, 2])
    j = neighbors[i, slot]
    synthetic = rows[i] + lam[:, None] * (rows[j] - rows[i])
    out_x = np.vstack([features, synthetic])
    out_y = np.concatenate([labels, np.full(n_new, minority, dtype=labels.dtype)])
    return out_x, out_y


@dataclass
class TrainSettings:
    lr: float = 1e-2
    batch_size: int = 32
    epochs: int = 30
    patience: int = 5
    w_pos: float = 1.0
    w_neg: float = 1.0
    optimizer: str = "adam"

    def validate(self) -> None:
        if self.lr <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ValidationError("lr, batch_size, and epochs must be positive")
        if self.patience < 0:
            raise ValidationError("patience must be non-negative")
        if self.w_pos <= 0 or self.w_neg <= 0:
            raise ValidationError("class weights must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"optimizer {self.optimizer!r} must be 'adam' or 'sgd'")


@dataclass
class TrainResult:
    status: str
    best_valid_auc: float
    best_epoch: int
    epochs_run: int
    curve: list[dict] = field(default_factory=list)
    failure: str | None = None


def _valid_auc(model: SeqFuseModel, table: EventTable, z, labels, idx) -> float:
    z_rows = z[idx] if z is not None else None
    probs, _, _ = model.predict(idx, table, z_rows)
    try:
        return auc(probs, labels[idx])
    except MetricUndefinedError:
        return 0.5


def train_model(
    model: SeqFuseModel,
    table: EventTable,
    z: np.ndarray | None,
    labels: np.ndarray,
    train_idx: list[int],
    valid_idx: list[int],
    settings: TrainSettings,
    seed: int,
) -> TrainResult:
    """Minibatch training with early stopping on validation AUC.

    The best-epoch weights are restored into the model before returning.
    With patience p, training stops after p+1 consecutive epochs without
    improvement. A non-finite loss marks the run failed instead of raising;
    the model keeps the best weights seen before the blow-up.
    """
    settings.validate()
    if not train_idx or not valid_idx:
        raise ValidationError("train and valid folds must be non-empty")
    labels = np.asarray(labels, dtype=np.float64)
    opt_cls = Adam if settings.optimizer == "adam" else Sgd
    optimizer = opt_cls(model.trainable(), lr=settings.lr)
    rng = Xoshiro256(derive_seed(seed, "shuffle"))
    best_auc = _valid_auc(model, table, z, labels, valid_idx)
    best_epoch = 0
    snapshot = {name: t.data.copy() for name, t in model.params.items()}
    curve = [{"epoch": 0, "train_loss": None, "valid_auc": best_auc}]
    no_improve = 0
    status, failure = "ok", None
    order = list(train_idx)
    epochs_run = 0
    for epoch in range(1, settings.epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        try:
            for start in range(0, len(order), settings.batch_size):
                batch = order[start : start + settings.batch_size]
                z_rows = z[batch] if z is not None else None
                with Tape() as tape:
                    loss, _ = model.loss(
                        batch,
                        table,
                        z_rows,
                        labels[batch],
                        w_pos=settings.w_pos,
                        w_neg=settings.w_neg,
                    )
                    backward(tape, loss)
                optimizer.step()
                optimizer.zero_grad()
                epoch_loss += loss.item() * len(batch)
        except NumericsError as exc:
            status, failure = "failed", str(exc)
            break
        epochs_run = epoch
        valid_auc = _valid_auc(model, table, z, labels, valid_idx)
        curve.append({"epoch": epoch, "train_loss": epoch_loss / len(order), "valid_auc": valid_auc})
        if valid_auc > best_auc + 1e-12:
            best_auc = valid_auc
            best_epoch = epoch
            snapshot = {name: t.data.copy() for name, t in model.params.items()}
            no_improve = 0
        else:
            no_improve += 1
            if no_improve > settings.patience:
                break
    for name, tensor in model.params.items():
        tensor.data = snapshot[name]
        tensor.zero_grad()
    return TrainResult(
        status=status,
        best_valid_auc=best_auc,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
        curve=curve,
        failure=failure,
    )


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class Trial:
    config: dict
    config_hash: str
    seed: int
    status: str
    valid_auc: float | None
    test_auc: float | None
    payload: dict = field(default_factory=dict)


@dataclass
class GridSearchResult:
    trials: list[Trial]
    ranked: list[Trial]
    top_test_mean: float | None
    top_test_std: float | None
    n_top: int

    @property
    def best(self) -> Trial | None:
        return self.ranked[0] if self.ranked else None


def enumerate_grid(axes: dict[str, list]) -> list[dict]:
    if not axes:
        return [{}]
    keys = sorted(axes)
    for key in keys:
        if not axes[key]:
            raise ValidationError(f"grid axis {key!r} is empty")
    return [dict(zip(keys, combo)) for combo in itertools.product(*(axes[k] for k in keys))]


def make_deep_runner(
    table: EventTable,
    z: np.ndarray,
    labels: np.ndarray,
    fold_idx: dict[str, list[int]],
    *,
    input_dim: int,
    domain_dim: int,
    fusion: str,
    embedding: str = "linear",
    embedding_seed: int = 0,
    epochs: int = 30,
    patience: int = 5,
    w_neg: float = 1.0,
    optimizer: str = "adam",
):
    """Binds the data and task so grid_search only sees (config, seed).

    z is standardized once, on the training fold's moments. Each trial
    trains a fresh model on it and reports validation/test AUC plus
    everything needed to persist the winner. A numerics blow-up returns a
    failed trial instead of raising. A pretrained trial freezes `random_embedding(input_dim, embed_dim,
    embedding_seed)` at its own `embed_dim`.
    """
    labels = np.asarray(labels, dtype=np.float64)
    use_z = fusion != "none"
    mean, std = fit_standardizer(z[fold_idx["train"]])
    z_std = apply_standardizer(z, mean, std) if use_z else None

    def run(config: dict, seed: int) -> dict:
        model_config = ModelConfig(
            input_dim=input_dim,
            embed_dim=int(config["embed_dim"]),
            hidden_dim=int(config["hidden_dim"]),
            domain_dim=domain_dim,
            n_gru_layers=int(config["n_gru_layers"]),
            fusion=fusion,
            mlp_hidden_dims=tuple(config["mlp_hidden_dims"]),
            embedding=embedding,
            seed=seed,
        )
        settings = TrainSettings(
            lr=float(config["lr"]),
            batch_size=int(config["batch_size"]),
            epochs=epochs,
            patience=patience,
            w_pos=float(config["w_pos"]),
            w_neg=w_neg,
            optimizer=optimizer,
        )
        pretrained = None
        if embedding == "pretrained":
            pretrained = random_embedding(input_dim, model_config.embed_dim, embedding_seed)
        try:
            model = SeqFuseModel(model_config, pretrained_embedding=pretrained)
            result = train_model(
                model, table, z_std, labels, fold_idx["train"], fold_idx["valid"], settings, seed
            )
        except NumericsError as exc:
            return {"status": "failed", "failure": str(exc)}
        if result.status != "ok":
            return {"status": "failed", "failure": result.failure}
        test_idx = fold_idx["test"]
        probs, _, _ = model.predict(test_idx, table, z_std[test_idx] if use_z else None)
        try:
            test_auc = auc(probs, labels[test_idx])
        except MetricUndefinedError:
            test_auc = 0.5
        return {
            "status": "ok",
            "valid_auc": result.best_valid_auc,
            "test_auc": test_auc,
            "model": model,
            "z_mean": mean,
            "z_std": std,
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
            "curve": result.curve,
        }

    return run


def grid_search(
    axes: dict[str, list],
    run_trial,
    base_seed: int,
    top_n: int = 10,
) -> GridSearchResult:
    """Runs every config in the grid; ranking ignores execution order.

    `run_trial(config, seed)` returns a dict with at least status,
    valid_auc, and test_auc. Each trial's seed derives from the root seed
    and its config hash. Failed trials are kept for the record but excluded
    from ranking and from the top-N summary.
    """
    configs = enumerate_grid(axes)
    hashes = [config_hash(c) for c in configs]
    if len(set(hashes)) != len(hashes):
        raise ValidationError("duplicate configs in grid")
    seeds = [derive_seed(base_seed, "trial", h) for h in hashes]

    outputs = [run_trial(config, seed) for config, seed in zip(configs, seeds)]

    trials = []
    for config, h, seed, out in zip(configs, hashes, seeds, outputs):
        payload = {k: v for k, v in out.items() if k not in ("status", "valid_auc", "test_auc")}
        trials.append(
            Trial(
                config=config,
                config_hash=h,
                seed=seed,
                status=out["status"],
                valid_auc=out.get("valid_auc"),
                test_auc=out.get("test_auc"),
                payload=payload,
            )
        )
    ranked = sorted(
        (t for t in trials if t.status == "ok"),
        key=lambda t: (-t.valid_auc, t.config_hash),
    )
    top = ranked[:top_n]
    if top:
        values = np.array([t.test_auc for t in top], dtype=np.float64)
        mean, std = float(values.mean()), float(values.std())
    else:
        mean, std = None, None
    return GridSearchResult(trials=trials, ranked=ranked, top_test_mean=mean, top_test_std=std, n_top=len(top))
