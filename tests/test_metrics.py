import numpy as np
import pytest

from biasaudit.data import encode_features
from biasaudit.metrics import (
    EvaluationResult,
    accuracy,
    average_precision,
    demographic_parity,
    entropy_index,
    equalized_odds,
    evaluate_classifier,
    generalized_entropy,
    prediction_consistency,
    roc_auc,
    utility_metrics,
)
from biasaudit.metrics import _average_ranks
from biasaudit.model import Classifier, predict, train_classifier

from util import make_dataset, random_dataset


def clf_with(weights, intercept):
    return Classifier(weights=np.asarray(weights, dtype=float), intercept=float(intercept))


class TestDemographicParity:
    def test_equal_rates(self):
        pred = np.array([1, 0, 1, 0])
        groups = np.array([0, 0, 1, 1])
        assert demographic_parity(pred, groups) == 0.0

    def test_gap_arithmetic(self):
        # rates 0.8 vs 0.3
        pred = np.concatenate([np.ones(8), np.zeros(2), np.ones(3), np.zeros(7)])
        groups = np.concatenate([np.ones(10), np.zeros(10)])
        assert demographic_parity(pred, groups) == pytest.approx(0.5)

    def test_all_positive_predictions(self):
        assert demographic_parity(np.ones(6), np.array([0, 1] * 3)) == 0.0

    def test_absent_group_rejected(self):
        with pytest.raises(ValueError, match="group 1"):
            demographic_parity(np.ones(3), np.zeros(3))

    def test_group_encoding_swap_invariant(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, 30)
        groups = rng.integers(0, 2, 30)
        assert demographic_parity(pred, groups) == pytest.approx(
            demographic_parity(pred, 1 - groups))


class TestEqualizedOdds:
    def test_identical_confusion_tables(self):
        true = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        pred = np.array([0, 1, 1, 0, 0, 1, 1, 0])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert equalized_odds(pred, true, groups) == 0.0

    def test_mean_convention(self):
        # TPR gap 0.2, FPR gap 0.0 -> mean 0.1
        true = np.array([1] * 10 + [0] * 2 + [1] * 10 + [0] * 2)
        pred = np.concatenate([np.ones(10), np.zeros(2), np.ones(8), np.zeros(2), np.zeros(2)])
        groups = np.array([1] * 12 + [0] * 12)
        assert equalized_odds(pred, true, groups) == pytest.approx(0.1)

    def test_perfect_classifier(self):
        true = np.array([0, 1, 0, 1])
        groups = np.array([0, 0, 1, 1])
        assert equalized_odds(true, true, groups) == 0.0

    def test_empty_cell_named(self):
        true = np.array([1, 1, 0, 1])
        pred = np.array([1, 0, 0, 1])
        groups = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match=r"group=0, label=0"):
            equalized_odds(pred, true, groups)

    def test_group_encoding_swap_invariant(self):
        rng = np.random.default_rng(1)
        true = np.tile([0, 1], 20)
        pred = rng.integers(0, 2, 40)
        groups = np.repeat([0, 1], 20)
        assert equalized_odds(pred, true, groups) == pytest.approx(
            equalized_odds(pred, true, 1 - groups))


class TestPredictionConsistency:
    def test_zero_group_weight_fully_consistent(self):
        d = make_dataset([0.1, 0.9], [], [0, 1], [0, 1])
        clf = clf_with([1.0, 0.0], -0.5)  # columns: x0, group
        assert prediction_consistency(clf, d) == 1.0

    def test_group_only_classifier_fully_inconsistent(self):
        d = make_dataset([0.1, 0.9], [], [0, 1], [0, 1])
        clf = clf_with([0.0, 10.0], -5.0)
        assert prediction_consistency(clf, d) == 0.0

    def test_brute_force_recount(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, 50, n_num=2, n_cat=1)
        matrix = encode_features(d)
        clf = train_classifier(matrix, d.labels)
        pc = prediction_consistency(clf, d)
        # independent recount: flip the group cell row by row
        unchanged = 0
        for i in range(d.n):
            row = matrix[i].copy()
            _, before = predict(clf, row.reshape(1, -1))
            row[-1] = 1.0 - row[-1]
            _, after = predict(clf, row.reshape(1, -1))
            unchanged += int(before[0] == after[0])
        assert pc == pytest.approx(unchanged / d.n)

    def test_repeatable(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 30)
        clf = train_classifier(encode_features(d), d.labels)
        assert prediction_consistency(clf, d) == prediction_consistency(clf, d)

    def test_classifier_trained_without_group_rejected(self):
        d = make_dataset([0.1, 0.9], [], [0, 1], [0, 1])
        clf = clf_with([1.0], 0.0)  # one feature, no group column
        with pytest.raises(ValueError, match="group column"):
            prediction_consistency(clf, d)


class TestGeneralizedEntropy:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 1, 0])
        assert generalized_entropy(y, y) == 0.0

    def test_benefits_zero_two(self):
        # benefits (0, 2): mean 1, index (1/4)*((0-1) + (4-1)) = 0.5
        pred = np.array([0, 1])
        true = np.array([1, 0])
        assert generalized_entropy(pred, true) == pytest.approx(0.5, abs=1e-15)

    def test_scale_invariance(self):
        benefits = np.array([1.0, 2.0, 0.5, 1.5])
        assert entropy_index(benefits) == pytest.approx(entropy_index(7.3 * benefits))

    def test_equal_benefits_zero(self):
        assert entropy_index(np.full(5, 2.0)) == 0.0

    def test_all_zero_benefits_defined_as_zero(self):
        assert entropy_index(np.zeros(4)) == 0.0


class TestUtilityMetrics:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert roc_auc(scores, labels) == 1.0
        assert average_precision(scores, labels) == 1.0

    def test_constant_scores_auc_half(self):
        scores = np.full(10, 0.4)
        labels = np.tile([0, 1], 5)
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=20)
            labels = rng.integers(0, 2, 20)
            if labels.min() == labels.max():
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert roc_auc(scores, labels) == pytest.approx(oracle, abs=1e-12)

    def test_exact_ties_hand_ranks(self):
        # sorted: 0.1 x2 -> ranks 1,2 (avg 1.5); 0.3 x3 -> 3,4,5 (avg 4); 0.7 -> 6
        scores = np.array([0.3, 0.1, 0.3, 0.7, 0.1, 0.3])
        assert _average_ranks(scores).tolist() == [4.0, 1.5, 4.0, 6.0, 1.5, 4.0]
        # positives 0, 3, 4: rank sum 11.5, (11.5 - 3*4/2) / (3*3) = 5.5/9
        assert roc_auc(scores, np.array([1, 0, 0, 1, 1, 0])) == 5.5 / 9

    def test_accuracy_threshold(self):
        scores = np.array([0.5, 0.49])
        labels = np.array([1, 0])
        assert accuracy(scores, labels) == 1.0

    def test_single_class_behavior(self):
        scores = np.array([0.2, 0.7])
        ones = np.array([1, 1])
        with pytest.raises(ValueError):
            roc_auc(scores, ones)
        with pytest.raises(ValueError):
            average_precision(scores, ones)
        acc, roc, ap = utility_metrics(scores, ones)
        assert acc == 0.5
        assert np.isnan(roc) and np.isnan(ap)

    def test_ap_against_hand_case(self):
        # descending order: pos, neg, pos -> precisions 1/1 and 2/3
        scores = np.array([0.9, 0.5, 0.1])
        labels = np.array([1, 0, 1])
        assert average_precision(scores, labels) == pytest.approx((1.0 + 2 / 3) / 2)


class TestEvaluationResult:
    def test_serialization_six_digits(self, tmp_path):
        r = EvaluationResult(acc=0.875, roc_auc=1 / 3, ap=0.5, dp=0.25, eo=0.125,
                             pc=1.0, ge=0.0625, n_privileged=7, n_protected=3,
                             pos_rate_privileged=2 / 7, pos_rate_protected=1 / 3)
        text = r.to_text()
        assert "roc_auc=0.333333" in text
        assert "acc=0.875000" in text
        assert "n_privileged=7" in text
        path = tmp_path / "metrics.txt"
        r.write(path)
        assert path.read_text() == text

    def test_evaluate_classifier_end_to_end(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, 60, n_num=2, n_cat=0)
        clf = train_classifier(encode_features(d), d.labels)
        result = evaluate_classifier(clf, d)
        assert 0.0 <= result.acc <= 1.0
        assert 0.0 <= result.pc <= 1.0
        assert result.n_privileged + result.n_protected == 60
