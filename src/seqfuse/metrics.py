"""Discrimination metrics, subgroup breakdowns, and surrogate importance."""

from __future__ import annotations

import numpy as np

from .errors import MetricUndefinedError, ValidationError

# The ridge penalty of `surrogate_importance`'s logistic surrogate.
_SURROGATE_L2 = 1.0


def _check_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValidationError("scores and labels must be 1-D and the same length")
    if set(np.unique(labels)) - {0, 1, False, True}:
        raise ValidationError("labels must be 0/1")
    return scores, labels.astype(np.int64)


def auc(scores, labels) -> float:
    """Mann-Whitney AUC with average ranks for ties: the probability that a
    random positive outscores a random negative, ties counting half."""
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # Each run of equal sorted scores, positions start..end, shares the
    # midrank 0.5 * (start + end) + 1.
    start = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    end = np.append(start[1:], len(scores)) - 1
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    rank_sum_pos = float(ranks[labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def recall_precision_at_threshold(scores, labels, threshold: float) -> tuple[float, float | None]:
    """Recall and precision for predicted-positive = score >= threshold.

    Precision is None when nothing is predicted positive.
    """
    scores, labels = _check_scores_labels(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise MetricUndefinedError("recall needs at least one positive")
    predicted = scores >= threshold
    tp = int((predicted & (labels == 1)).sum())
    recall = tp / n_pos
    n_pred = int(predicted.sum())
    precision = tp / n_pred if n_pred else None
    return recall, precision


def recall_at_top_k(scores, labels, k: int) -> float:
    """Share of all positives captured by the k highest scores.

    Ties and ordering are deterministic: stable sort by descending score,
    then input position.
    """
    scores, labels = _check_scores_labels(scores, labels)
    if not 1 <= k <= len(scores):
        raise ValidationError(f"k must be in [1, {len(scores)}], got {k}")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise MetricUndefinedError("recall needs at least one positive")
    top = np.lexsort((np.arange(len(scores)), -scores))[:k]
    return float(labels[top].sum()) / n_pos


def subgroup_report(
    scores,
    labels,
    groups: dict[str, np.ndarray],
    n_min: int,
    threshold: float,
) -> list[dict]:
    """Per-partition, per-group metrics over one scored event set.

    `groups` maps partition name to one group value per event, an array or
    a list; each partition's groups come in sorted order. Groups where
    AUC or recall is undefined get None there; groups smaller than n_min
    are flagged, not dropped. Group sizes within a partition sum to the
    full event count.
    """
    scores, labels = _check_scores_labels(scores, labels)
    rows: list[dict] = []
    for partition in sorted(groups):
        values = np.asarray(groups[partition])
        if len(values) != len(scores):
            raise ValidationError(f"partition {partition!r} has {len(values)} values for {len(scores)} events")
        for group in np.unique(values).tolist():
            mask = values == group
            n = int(mask.sum())
            sub_scores, sub_labels = scores[mask], labels[mask]
            prevalence = float(sub_labels.mean())
            try:
                group_auc = auc(sub_scores, sub_labels)
            except MetricUndefinedError:
                group_auc = None
            try:
                recall, _ = recall_precision_at_threshold(sub_scores, sub_labels, threshold)
            except MetricUndefinedError:
                recall = None
            rows.append(
                {
                    "partition": partition,
                    "group": group,
                    "n": n,
                    "prevalence": prevalence,
                    "auc": group_auc,
                    "recall": recall,
                    "small_n": n < n_min,
                }
            )
    return rows


def surrogate_importance(
    matrix: np.ndarray,
    names: list[str],
    categories: list[str],
    model_scores,
    threshold: float,
) -> list[dict]:
    """Explains a model by the weights of a logistic surrogate.

    The surrogate, with ridge penalty `_SURROGATE_L2`, is fit on
    standardized flat features against the model's own predictions
    binarized at the threshold, not against outcomes; its weights rank
    which inputs drive the model's decisions. Rows sort by absolute weight
    as printed to six decimals, descending, name ascending on ties, so
    weights that print alike (complementary one-hot columns) keep one
    order whatever their last bits.
    """
    from .baseline import train_lr
    from .training import apply_standardizer, fit_standardizer

    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(names) or len(names) != len(categories):
        raise ValidationError("matrix, names, and categories must agree on width")
    scores = np.asarray(model_scores, dtype=np.float64)
    if scores.shape != (matrix.shape[0],):
        raise ValidationError("one model score per row required")
    targets = (scores >= threshold).astype(np.int64)
    if targets.min() == targets.max():
        raise MetricUndefinedError("binarized predictions are single-class; surrogate undefined")
    lr = train_lr(apply_standardizer(matrix, *fit_standardizer(matrix)), targets, l2=_SURROGATE_L2)
    order = sorted(range(len(names)), key=lambda i: (-abs(float(f"{lr.weights[i]:.6f}")), names[i]))
    return [
        {"category": categories[i], "feature": names[i], "importance": float(lr.weights[i])}
        for i in order
    ]
