"""Fairness and utility metrics for binary classifiers over two groups.

Group fairness: demographic parity (positive-rate gap) and equalized
odds (mean of the TPR and FPR gaps). Individual fairness: prediction
consistency under flipping the group column, the last column of the
`encode_features` matrix. Both-at-once: generalized entropy of
per-sample benefits. Utility: accuracy, ROC-AUC with half-credit ties,
and average precision.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, encode_features
from .model import Classifier, predict


def demographic_parity(pred_labels, groups) -> float:
    """Absolute gap in positive prediction rates between the two groups."""
    pred_labels = np.asarray(pred_labels)
    groups = np.asarray(groups)
    for g in (0, 1):
        if not (groups == g).any():
            raise ValueError(f"group {g} is absent")
    rate1 = pred_labels[groups == 1].mean()
    rate0 = pred_labels[groups == 0].mean()
    return float(abs(rate1 - rate0))


def equalized_odds(pred_labels, true_labels, groups) -> float:
    """Mean of the absolute TPR and FPR gaps between the two groups; every
    (group, label) cell must be nonempty."""
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    groups = np.asarray(groups)
    rates = np.empty((2, 2))  # positive prediction rate per [group, label]
    for g in (0, 1):
        for y in (0, 1):
            cell = (groups == g) & (true_labels == y)
            if not cell.any():
                raise ValueError(f"empty (group={g}, label={y}) cell")
            rates[g, y] = pred_labels[cell].mean()
    return float(np.abs(rates[1] - rates[0]).mean())


def prediction_consistency(clf: Classifier, data) -> float:
    """Fraction of samples whose prediction survives flipping the group column.

    `data` is a Dataset or its `encode_features` matrix, whose last column
    is the group.
    """
    matrix = encode_features(data) if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    if matrix.shape[1] != len(clf.weights):
        raise ValueError("classifier was not trained with the group column")
    _, labels = predict(clf, matrix)
    flipped = matrix.copy()
    flipped[:, -1] = 1.0 - flipped[:, -1]
    _, labels_flipped = predict(clf, flipped)
    return float((labels == labels_flipped).mean())


def entropy_index(benefits) -> float:
    """Generalized entropy of a nonnegative benefit vector (alpha = 2)."""
    benefits = np.asarray(benefits, dtype=float)
    mu = benefits.mean()
    if mu == 0.0:
        return 0.0
    return float(((benefits / mu) ** 2 - 1.0).sum() / (2.0 * len(benefits)))


def generalized_entropy(pred_labels, true_labels) -> float:
    """Entropy index over per-sample benefits pred - true + 1."""
    benefits = np.asarray(pred_labels) - np.asarray(true_labels) + 1.0
    return entropy_index(benefits)


def accuracy(scores, true_labels) -> float:
    pred = (np.asarray(scores) >= 0.5).astype(int)
    return float((pred == np.asarray(true_labels)).mean())


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of x; tied values share the average of their ranks."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    first = np.r_[True, sorted_x[1:] != sorted_x[:-1]]
    dense = np.empty(len(x), dtype=int)
    dense[order] = np.cumsum(first)
    count = np.r_[np.flatnonzero(first), len(x)]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def roc_auc(scores, true_labels) -> float:
    """Rank-statistic AUC; tied scores count half."""
    scores = np.asarray(scores, dtype=float)
    true_labels = np.asarray(true_labels)
    n_pos = int((true_labels == 1).sum())
    n_neg = int((true_labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC-AUC needs both classes present")
    ranks = _average_ranks(scores)
    return float((ranks[true_labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores, true_labels) -> float:
    """Mean precision at each positive, scanning scores in descending order."""
    scores = np.asarray(scores, dtype=float)
    true_labels = np.asarray(true_labels)
    n_pos = int((true_labels == 1).sum())
    if n_pos == 0 or (true_labels == 1).all():
        raise ValueError("average precision needs both classes present")
    order = np.lexsort((np.arange(len(scores)), -scores))
    hits = true_labels[order] == 1
    cum_hits = np.cumsum(hits)
    precision_at = cum_hits[hits] / (np.nonzero(hits)[0] + 1)
    return float(precision_at.mean())


def utility_metrics(scores, true_labels):
    """(accuracy, roc_auc, ap); the ranking metrics are NaN on single-class labels."""
    acc = accuracy(scores, true_labels)
    try:
        roc = roc_auc(scores, true_labels)
        ap = average_precision(scores, true_labels)
    except ValueError:
        roc, ap = float("nan"), float("nan")
    return acc, roc, ap


@dataclass(frozen=True)
class EvaluationResult:
    acc: float
    roc_auc: float
    ap: float
    dp: float
    eo: float
    pc: float
    ge: float
    n_privileged: int
    n_protected: int
    pos_rate_privileged: float
    pos_rate_protected: float

    def to_text(self) -> str:
        """One line of tab-separated `name=value` pairs in field order;
        floats with six decimals."""
        return "\t".join(
            f"{f.name}={format(getattr(self, f.name), '' if f.type == 'int' else '.6f')}"
            for f in fields(self)
        ) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def evaluate_classifier(clf: Classifier, d: Dataset) -> EvaluationResult:
    """Score a trained classifier on a dataset across the full metric suite."""
    matrix = encode_features(d)
    scores, labels = predict(clf, matrix)
    acc, roc, ap = utility_metrics(scores, d.labels)
    try:
        eo = equalized_odds(labels, d.labels, d.groups)
    except ValueError:
        eo = float("nan")
    try:
        dp = demographic_parity(labels, d.groups)
    except ValueError:
        dp = float("nan")
    return EvaluationResult(
        acc=acc,
        roc_auc=roc,
        ap=ap,
        dp=dp,
        eo=eo,
        pc=prediction_consistency(clf, matrix),
        ge=generalized_entropy(labels, d.labels),
        n_privileged=int((d.groups == 1).sum()),
        n_protected=int((d.groups == 0).sum()),
        pos_rate_privileged=float(labels[d.groups == 1].mean()) if (d.groups == 1).any() else float("nan"),
        pos_rate_protected=float(labels[d.groups == 0].mean()) if (d.groups == 0).any() else float("nan"),
    )
