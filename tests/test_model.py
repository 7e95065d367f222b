import numpy as np
import pytest
from scipy.special import expit

from biasaudit.model import (
    EPOCHS,
    L2,
    LEARNING_RATE,
    Classifier,
    gradient,
    predict,
    train_classifier,
)


def loss(w, b, X, y, l2):
    """L2-regularized mean cross-entropy; log(1 + exp(z)) - y*z, computed stably."""
    z = X @ w + b
    return np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(w, w)


def reference_descent(X, y):
    """Gradient descent written out in full, recording the loss before every step
    and after the last."""
    w, b, history = np.zeros(X.shape[1]), 0.0, []
    for _ in range(EPOCHS):
        z = X @ w + b
        history.append(loss(w, b, X, y, L2))
        residual = expit(z) - y
        grad_w = X.T @ residual / len(y) + L2 * w
        grad_b = residual.mean()
        w = w - LEARNING_RATE * grad_w
        b = b - LEARNING_RATE * grad_b
    history.append(loss(w, b, X, y, L2))
    return w, b, np.array(history)


class TestTraining:
    def test_separable_two_points(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        clf = train_classifier(X, y)
        _, labels = predict(clf, X)
        assert np.array_equal(labels, y)

    def test_uninformative_features_give_half(self):
        X = np.zeros((10, 2))
        y = np.array([0, 1] * 5)
        clf = train_classifier(X, y)
        scores, _ = predict(clf, X)
        assert np.abs(scores - 0.5).max() < 1e-3

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 4))
        y = rng.integers(0, 2, size=10).astype(float)
        w = rng.normal(size=4)
        b = 0.3
        l2 = 1e-4
        grad_w, grad_b = gradient(w, b, X, y, l2)
        h = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            hi = loss(w + e, b, X, y, l2)
            lo = loss(w - e, b, X, y, l2)
            fd = (hi - lo) / (2 * h)
            assert abs(grad_w[k] - fd) <= 1e-5 * max(1.0, abs(fd))
        fd_b = (loss(w, b + h, X, y, l2) - loss(w, b - h, X, y, l2)) / (2 * h)
        assert abs(grad_b - fd_b) <= 1e-5 * max(1.0, abs(fd_b))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        a = train_classifier(X, y)
        b = train_classifier(X, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_matches_reference_descent_with_non_increasing_loss(self):
        for seed in (2, 7, 19):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(50, 4))
            # noise labels, and separable ones whose weights keep growing
            for y in (rng.integers(0, 2, size=50), (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)):
                clf = train_classifier(X, y)
                w, b, hist = reference_descent(X, y.astype(float))
                assert np.array_equal(clf.weights, w)
                assert clf.intercept == b
                assert (np.diff(hist) <= 1e-12).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            train_classifier(np.zeros((4, 1)), np.ones(4))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_classifier(np.zeros((4, 1)), np.array([0, 1]))


class TestPredict:
    def test_zero_weights_score_half_label_one(self):
        clf = Classifier(weights=np.zeros(2), intercept=0.0)
        scores, labels = predict(clf, np.ones((3, 2)))
        assert np.allclose(scores, 0.5)
        assert np.array_equal(labels, [1, 1, 1])

    def test_monotone_in_positive_weight_feature(self):
        clf = Classifier(weights=np.array([2.0]), intercept=-1.0)
        scores, _ = predict(clf, np.linspace(0, 1, 9).reshape(-1, 1))
        assert (np.diff(scores) > 0).all()

    def test_train_then_predict_consistency(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int)
        clf = train_classifier(X, y)
        _, labels = predict(clf, X)
        assert (labels == y).mean() > 0.9

    def test_dimension_mismatch_rejected(self):
        clf = Classifier(weights=np.zeros(3), intercept=0.0)
        with pytest.raises(ValueError, match="feature count"):
            predict(clf, np.zeros((2, 2)))
