import numpy as np
import pytest

from biasaudit.model import (
    Classifier,
    loss_and_gradient,
    predict,
    train_classifier,
)


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
        _, grad_w, grad_b = loss_and_gradient(w, b, X, y, l2)
        h = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            hi = loss_and_gradient(w + e, b, X, y, l2)[0]
            lo = loss_and_gradient(w - e, b, X, y, l2)[0]
            fd = (hi - lo) / (2 * h)
            assert abs(grad_w[k] - fd) <= 1e-5 * max(1.0, abs(fd))
        fd_b = (loss_and_gradient(w, b + h, X, y, l2)[0]
                - loss_and_gradient(w, b - h, X, y, l2)[0]) / (2 * h)
        assert abs(grad_b - fd_b) <= 1e-5 * max(1.0, abs(fd_b))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        a = train_classifier(X, y)
        b = train_classifier(X, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50)
        clf = train_classifier(X, y)
        hist = np.array(clf.loss_history)
        assert (np.diff(hist) <= 1e-12).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            train_classifier(np.zeros((4, 1)), np.ones(4))

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_classifier(np.zeros((4, 1)), np.array([0, 1]))


class TestPredict:
    def test_zero_weights_score_half_label_one(self):
        clf = Classifier(weights=np.zeros(2), intercept=0.0, loss_history=())
        scores, labels = predict(clf, np.ones((3, 2)))
        assert np.allclose(scores, 0.5)
        assert np.array_equal(labels, [1, 1, 1])

    def test_monotone_in_positive_weight_feature(self):
        clf = Classifier(weights=np.array([2.0]), intercept=-1.0, loss_history=())
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
        clf = Classifier(weights=np.zeros(3), intercept=0.0, loss_history=())
        with pytest.raises(ValueError, match="feature count"):
            predict(clf, np.zeros((2, 2)))
