"""Fairness and utility metrics for binary classifiers over two groups.

Group fairness: demographic parity (positive-rate gap) and equalized
odds (mean of the TPR and FPR gaps). Individual fairness: prediction
consistency under flipping the group column, the last column of the
`encode_features` matrix. Both-at-once: generalized entropy of
per-sample benefits. Utility: accuracy, ROC-AUC with half-credit ties,
and average precision.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, encode_features
from .model import Classifier, predict


def _positive_rate(pred, mask, what) -> float:
    """Mean prediction over the rows in `mask`; a ValueError naming `what` if none."""
    if not mask.any():
        raise ValueError(f"{what} is empty")
    return float(pred[mask].mean())


def demographic_parity(pred_labels, groups) -> float:
    """Absolute gap in positive prediction rates between the two groups."""
    pred_labels, groups = np.asarray(pred_labels), np.asarray(groups)
    rate0, rate1 = (_positive_rate(pred_labels, groups == g, f"group {g}") for g in (0, 1))
    return abs(rate1 - rate0)


def equalized_odds(pred_labels, true_labels, groups) -> float:
    """Mean of the absolute TPR and FPR gaps between the two groups; every
    (group, label) cell must be nonempty."""
    pred_labels, true_labels, groups = map(np.asarray, (pred_labels, true_labels, groups))
    rates = np.array([[_positive_rate(pred_labels, (groups == g) & (true_labels == y),
                                      f"(group={g}, label={y}) cell") for y in (0, 1)]
                      for g in (0, 1)])  # positive prediction rate per [group, label]
    return float(np.abs(rates[1] - rates[0]).mean())


def prediction_consistency(clf: Classifier, matrix) -> float:
    """Fraction of samples whose prediction survives flipping the group column,
    the last column of the `encode_features` matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[1] != len(clf.weights):
        raise ValueError("classifier was not trained with the group column")
    _, labels = predict(clf, matrix)
    flipped = matrix.copy()
    flipped[:, -1] = 1.0 - flipped[:, -1]
    _, labels_flipped = predict(clf, flipped)
    return float((labels == labels_flipped).mean())


def generalized_entropy(pred_labels, true_labels) -> float:
    """Generalized entropy index (alpha = 2) of the per-sample benefits
    pred - true + 1; 0 when every benefit is 0."""
    benefits = np.asarray(pred_labels) - np.asarray(true_labels) + 1.0
    mu = benefits.mean()
    if mu == 0.0:
        return 0.0
    return float(((benefits / mu) ** 2 - 1.0).sum() / (2.0 * len(benefits)))


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


def _or_nan(metric, *args) -> float:
    """metric(*args), or NaN where the metric is undefined on this input: the
    ValueError each metric raises for a missing class, group or cell."""
    try:
        return metric(*args)
    except ValueError:
        return float("nan")


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
        """One line of tab-separated `name=value` pairs in field order; ints
        plain, floats with six decimals."""
        return "\t".join(
            f"{name}={format(v, '' if isinstance(v, int) else '.6f')}"
            for name, v in asdict(self).items()
        ) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def evaluate_classifier(clf: Classifier, d: Dataset) -> EvaluationResult:
    """Score a trained classifier on a dataset across the full metric suite;
    a metric undefined on `d` (one class, a missing group, an empty cell) is NaN."""
    matrix = encode_features(d)
    scores, labels = predict(clf, matrix)
    return EvaluationResult(
        acc=accuracy(scores, d.labels),
        roc_auc=_or_nan(roc_auc, scores, d.labels),
        ap=_or_nan(average_precision, scores, d.labels),
        dp=_or_nan(demographic_parity, labels, d.groups),
        eo=_or_nan(equalized_odds, labels, d.labels, d.groups),
        pc=prediction_consistency(clf, matrix),
        ge=generalized_entropy(labels, d.labels),
        n_privileged=int((d.groups == 1).sum()),
        n_protected=int((d.groups == 0).sum()),
        pos_rate_privileged=_or_nan(_positive_rate, labels, d.groups == 1, "group 1"),
        pos_rate_protected=_or_nan(_positive_rate, labels, d.groups == 0, "group 0"),
    )
