"""Deterministic logistic regression trained by full-batch gradient descent
with the fixed step size, epoch count and L2 weight below."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix

LEARNING_RATE = 0.1
EPOCHS = 500
L2 = 1e-4


@dataclass(frozen=True)
class Classifier:
    weights: np.ndarray
    intercept: float
    loss_history: tuple

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.intercept)):
            raise ValueError("classifier parameters must be finite")
        self.weights.setflags(write=False)


def _as_matrix(X):
    return X.matrix if isinstance(X, DesignMatrix) else np.asarray(X, dtype=float)


def loss_and_gradient(w, b, X, y, l2):
    """L2-regularized mean cross-entropy and its gradient (intercept unpenalized)."""
    from scipy.special import expit

    z = X @ w + b
    # log(1 + exp(z)) - y*z, computed stably
    loss = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(w, w)
    residual = expit(z) - y
    grad_w = X.T @ residual / len(y) + l2 * w
    grad_b = residual.mean()
    return loss, grad_w, grad_b


def train_classifier(X, y) -> Classifier:
    """Fit by full-batch gradient descent from zero initialization.

    Deterministic given (X, y); the recorded loss history is
    non-increasing.
    """
    mat = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if mat.shape[0] != len(y):
        raise ValueError("row count of X does not match y")
    if len(np.unique(y)) < 2:
        raise ValueError("training labels contain a single class")
    w = np.zeros(mat.shape[1])
    b = 0.0
    history = []
    for _ in range(EPOCHS):
        loss, grad_w, grad_b = loss_and_gradient(w, b, mat, y, L2)
        history.append(loss)
        w = w - LEARNING_RATE * grad_w
        b = b - LEARNING_RATE * grad_b
    history.append(loss_and_gradient(w, b, mat, y, L2)[0])
    return Classifier(weights=w, intercept=float(b), loss_history=tuple(history))


def predict(clf: Classifier, X):
    """Return (scores, hard labels); label 1 iff score >= 0.5."""
    from scipy.special import expit

    mat = _as_matrix(X)
    if mat.shape[1] != len(clf.weights):
        raise ValueError(
            f"feature count {mat.shape[1]} does not match trained width {len(clf.weights)}"
        )
    scores = expit(mat @ clf.weights + clf.intercept)
    return scores, (scores >= 0.5).astype(int)
