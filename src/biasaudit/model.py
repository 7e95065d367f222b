"""Deterministic logistic regression trained by full-batch gradient descent
with the fixed step size, epoch count and L2 weight below. Training takes
the steps of the L2-regularized mean cross-entropy's gradient; the loss
itself is never evaluated."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEARNING_RATE = 0.1
EPOCHS = 500
L2 = 1e-4


@dataclass(frozen=True)
class Classifier:
    weights: np.ndarray
    intercept: float

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.intercept)):
            raise ValueError("classifier parameters must be finite")
        self.weights.setflags(write=False)


def gradient(w, b, X, y, l2):
    """Gradient of the L2-regularized mean cross-entropy (intercept unpenalized)."""
    from scipy.special import expit

    residual = expit(X @ w + b) - y
    return X.T @ residual / len(y) + l2 * w, residual.mean()


def train_classifier(X, y) -> Classifier:
    """Fit by full-batch gradient descent from zero initialization.

    Deterministic given (X, y).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] != len(y):
        raise ValueError("row count of X does not match y")
    if len(np.unique(y)) < 2:
        raise ValueError("training labels contain a single class")
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(EPOCHS):
        grad_w, grad_b = gradient(w, b, X, y, L2)
        w = w - LEARNING_RATE * grad_w
        b = b - LEARNING_RATE * grad_b
    return Classifier(weights=w, intercept=float(b))


def predict(clf: Classifier, X):
    """Return (scores, hard labels); label 1 iff score >= 0.5."""
    from scipy.special import expit

    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(clf.weights):
        raise ValueError(
            f"feature count {X.shape[1]} does not match trained width {len(clf.weights)}"
        )
    scores = expit(X @ clf.weights + clf.intercept)
    return scores, (scores >= 0.5).astype(int)
