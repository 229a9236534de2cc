"""Folds, oversampling, the training loop, and hyperparameter search.

Splitting is patient-level and stratified by each patient's count of
positive events (0, 1, 2+), with largest-remainder rounding so every fold
lands within one patient of its exact share. All shuffling and trial seeds
derive from one root seed. `grid_search` records each trial as a plain
dict, its runner's result with the config, config hash and seed, and
`top_trials` ranks a cell's ok trials by validation AUC with the config
hash as the tiebreak, so search output is independent of execution order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np

from .autodiff import Adam, Tape, backward
from .errors import NumericsError, ValidationError
from .features import EventTable
from .metrics import auc
from .model import ModelConfig, SeqFuseModel, random_embedding
from .rng import Xoshiro256, derive_seed, unit_floats

FOLD_NAMES = ("train", "valid", "calibration", "test")
# Table 3 reports each cell's mean and std of test AUC over this many of
# its best trials by validation AUC.
TOP_N = 10
# The working memory of SMOTE's neighbour search, in bytes: half for the
# filter's (rows, n_min) blocks of distance bounds, half for the
# refinement's (pairs, d) differences. At least one row or pair is taken
# per block. A brute-force search forms (n_min, n_min, d) differences:
# 366 MB at 2,000 patients, 35.5 GiB at 20,000.
_SMOTE_BLOCK_BYTES = 8 << 20


def split_patients(
    positive_events: dict[str, int],
    seed: int,
    fractions: tuple[float, float, float, float],
) -> tuple[dict[str, list[str]], list[str]]:
    """Assigns each patient to one fold, stratified by 0/1/2+ positives.

    Within a stratum, patients are shuffled and quotas are filled by
    largest remainder, so each fold holds floor or ceil of its exact share.
    `fractions` are taken as given: four positive shares summing to 1, as
    the config's `train.fractions` rule checks at load. A positive share
    can still round to no patient, which `train` refuses. Returns the fold
    lists and warnings for empty strata.
    """
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


def _smote_plan(labels: np.ndarray, k: int, target_ratio: float) -> tuple[int, int, int]:
    """(minority class, minority row count, new row count) of a `smote`
    call; raises what `smote` raises for its labels and k."""
    if set(np.unique(labels)) - {0, 1}:
        raise ValidationError("labels must be 0/1")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("SMOTE needs both classes present")
    minority = 1 if n_pos < n_neg else 0
    n_min = min(n_pos, n_neg)
    n_new = int(round(target_ratio * max(n_pos, n_neg))) - n_min
    if n_new > 0 and n_min < k + 1:
        raise ValidationError(
            f"SMOTE with k={k} needs at least {k + 1} minority rows, got {n_min}; "
            "lower k or rebalance by duplication"
        )
    return minority, n_min, n_new


def smote_neighbors(features: np.ndarray, labels: np.ndarray, k: int = 5, target_ratio: float = 1.0) -> np.ndarray:
    """The neighbour table `smote` draws from for these arguments: each
    minority row's k nearest other minority rows, or no rows when `smote`
    adds none. It takes nothing from the seed, so a runner that
    oversamples one fold in several trials builds it once and hands it to
    every `smote` call."""
    labels = np.asarray(labels)
    minority, _, n_new = _smote_plan(labels, k, target_ratio)
    if n_new <= 0:
        return np.empty((0, k), dtype=np.intp)
    return _nearest_neighbors(features[labels == minority], k)


def smote(
    features: np.ndarray,
    labels: np.ndarray,
    seed: int,
    k: int = 5,
    target_ratio: float = 1.0,
    neighbors: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic minority oversampling: new points interpolate between a
    minority row and one of its k nearest minority neighbors.

    Original rows come first, unchanged. With target_ratio 1.0 the classes
    balance exactly. Each new point draws its row, its neighbour's slot and
    its weight, in that order, from one stream. The neighbour table is
    `neighbors` when given, which must be `smote_neighbors` of the same
    features, labels, k and ratio, and is built here otherwise. It comes
    from `_nearest_neighbors`: it equals a brute-force search's table but
    is built in about `_SMOTE_BLOCK_BYTES` of working memory, not the
    n_min^2 * d floats a brute-force search forms.
    """
    labels = np.asarray(labels)
    minority, n_min, n_new = _smote_plan(labels, k, target_ratio)
    if n_new <= 0:
        return features.copy(), labels.copy()
    rng = Xoshiro256(derive_seed(seed, "smote"))
    rows = features[labels == minority]
    if neighbors is None:
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


def batch_schedule(rows: list[int], lengths: np.ndarray, batch_size: int, seed: int):
    """Yields each epoch's minibatches of `rows`, as int arrays.

    Each epoch shuffles the order from the trial's `shuffle` stream, sorts
    it stably by sequence length (`lengths[row]`), so rows of one length
    keep their shuffled order, cuts it into batches of `batch_size`, and
    shuffles the batches from the same stream. A batch then pads to about
    its own length rather than to the longest of `batch_size` random rows
    (sequence bucketing; Khomenko et al., IEEE DSMP 2016).
    """
    rng = Xoshiro256(derive_seed(seed, "shuffle"))
    order = list(rows)
    while True:
        rng.shuffle(order)
        by_length = np.asarray(order, dtype=np.int64)
        by_length = by_length[np.argsort(lengths[by_length], kind="stable")]
        batches = [by_length[start : start + batch_size] for start in range(0, len(order), batch_size)]
        rng.shuffle(batches)
        yield batches


def _model_auc(model: SeqFuseModel, table: EventTable, labels, idx) -> float:
    probs, _, _ = model.predict(idx, table)
    return auc(probs, labels[idx])


def train_model(
    model: SeqFuseModel,
    table: EventTable,
    labels: np.ndarray,
    train_idx: list[int],
    valid_idx: list[int],
    *,
    lr: float,
    batch_size: int,
    epochs: int,
    patience: int,
    w_pos: float,
    seed: int,
) -> dict:
    """Minibatch Adam training with early stopping on validation AUC, on
    the length-sorted batches of `batch_schedule`. The model reads each
    batch, steps and z, from the rows of `table`.

    The best-epoch weights are restored into the model before returning.
    With patience p, training stops after p+1 consecutive epochs without
    improvement. A non-finite loss marks the run failed instead of raising;
    the model keeps the best weights seen before the blow-up. Returns the
    `status` ("ok" or "failed"), the best `valid_auc` (None when failed),
    the `curve` (one point per epoch run, epoch 0 the untrained model) and
    the `failure` message (None when ok).

    The arguments are taken as given: the config rules checked at load
    keep the hyperparameters in range, and `train` refuses an empty fold,
    and a valid or test fold of one class, before any trial runs.
    """
    labels = np.asarray(labels, dtype=np.float64)
    optimizer = Adam(model.trainable(), lr=lr)
    schedule = batch_schedule(train_idx, np.diff(table.step_ptr), batch_size, seed)
    best_auc = _model_auc(model, table, labels, valid_idx)
    snapshot = {name: t.data.copy() for name, t in model.params.items()}
    curve = [{"epoch": 0, "train_loss": None, "valid_auc": best_auc}]
    no_improve = 0
    failure = None
    for epoch in range(1, epochs + 1):
        epoch_loss = 0.0
        try:
            for batch in next(schedule):
                with Tape() as tape:
                    loss, _ = model.loss(batch, table, labels[batch], w_pos)
                    backward(tape, loss)
                optimizer.step()
                optimizer.zero_grad()
                epoch_loss += loss.item() * len(batch)
        except NumericsError as exc:
            failure = str(exc)
            break
        valid_auc = _model_auc(model, table, labels, valid_idx)
        curve.append({"epoch": epoch, "train_loss": epoch_loss / len(train_idx), "valid_auc": valid_auc})
        if valid_auc > best_auc + 1e-12:
            best_auc = valid_auc
            snapshot = {name: t.data.copy() for name, t in model.params.items()}
            no_improve = 0
        else:
            no_improve += 1
            if no_improve > patience:
                break
    for name, tensor in model.params.items():
        tensor.data = snapshot[name]
        tensor.zero_grad()
    if failure is not None:
        return {"status": "failed", "valid_auc": None, "curve": curve, "failure": failure}
    return {"status": "ok", "valid_auc": best_auc, "curve": curve, "failure": None}


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def enumerate_grid(axes: dict[str, list]) -> list[dict]:
    """Every config of the grid, keys sorted, last key varying fastest. An
    empty axis gives no config; the config rules refuse one at load."""
    keys = sorted(axes)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(axes[k] for k in keys))]


def make_deep_runner(
    table: EventTable,
    labels: np.ndarray,
    fold_idx: dict[str, list[int]],
    *,
    input_dim: int,
    fusion: str,
    embedding: str,
    embedding_seed: int,
    epochs: int,
    patience: int,
):
    """Binds the data and task so grid_search only sees (config, seed).

    The table's z is standardized once, on the training fold's moments,
    into a copy of the table that every trial reads. Each trial trains a
    fresh model and returns `train_model`'s dict, plus, when it trained,
    the test AUC and everything needed to persist the winner.
    A numerics blow-up returns a failed trial instead of raising. A
    pretrained trial freezes `random_embedding(input_dim, embed_dim,
    embedding_seed)` at its own `embed_dim`.
    """
    labels = np.asarray(labels, dtype=np.float64)
    mean, std = fit_standardizer(table.z[fold_idx["train"]])
    table = replace(table, z=apply_standardizer(table.z, mean, std))

    def run(config: dict, seed: int) -> dict:
        model_config = ModelConfig(
            input_dim=input_dim,
            embed_dim=int(config["embed_dim"]),
            hidden_dim=int(config["hidden_dim"]),
            domain_dim=table.z.shape[1],
            n_gru_layers=int(config["n_gru_layers"]),
            fusion=fusion,
            mlp_hidden_dims=tuple(config["mlp_hidden_dims"]),
            embedding=embedding,
            seed=seed,
        )
        pretrained = None
        if embedding == "pretrained":
            pretrained = random_embedding(input_dim, model_config.embed_dim, embedding_seed)
        try:
            model = SeqFuseModel(model_config, pretrained_embedding=pretrained)
            result = train_model(
                model, table, labels, fold_idx["train"], fold_idx["valid"],
                lr=float(config["lr"]), batch_size=int(config["batch_size"]), epochs=epochs,
                patience=patience, w_pos=float(config["w_pos"]), seed=seed,
            )
        except NumericsError as exc:
            return {"status": "failed", "failure": str(exc)}
        if result["status"] == "ok":
            test_auc = _model_auc(model, table, labels, fold_idx["test"])
            result.update(test_auc=test_auc, model=model, z_mean=mean, z_std=std)
        return result

    return run


def grid_search(axes: dict[str, list], run_trial, base_seed: int) -> list[dict]:
    """Runs every config in the grid, returning one record per trial in
    grid order: `run_trial(config, seed)`'s dict plus the trial's `config`,
    `config_hash` and `seed`. Each seed derives from the root seed and the
    config hash, so no trial depends on the order the grid runs in. Each
    axis lists each value once, as the config rules check at load, so no
    two trials share a config."""
    trials = []
    for config in enumerate_grid(axes):
        h = config_hash(config)
        seed = derive_seed(base_seed, "trial", h)
        trials.append({**run_trial(config, seed), "config": config, "config_hash": h, "seed": seed})
    return trials


def top_trials(trials: list[dict]) -> tuple[list[dict], float, float] | None:
    """A cell's ok trials ranked by validation AUC, ties broken by config
    hash, cut to the best `TOP_N`, with the mean and std of their test
    AUCs: what Table 3 reports. None when no trial is ok."""
    ranked = sorted((t for t in trials if t["status"] == "ok"), key=lambda t: (-t["valid_auc"], t["config_hash"]))
    if not ranked:
        return None
    top = ranked[:TOP_N]
    values = np.array([t["test_auc"] for t in top], dtype=np.float64)
    return top, float(values.mean()), float(values.std())
