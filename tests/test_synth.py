import numpy as np
import pytest

from biasaudit.attribution import BIAS_THRESHOLD, Estimate
from biasaudit.data import load_dataset, load_schema, save_dataset, save_schema
from biasaudit.synth import (
    SynthConfig,
    detection_accuracy,
    generate_base,
    inject_group_bias,
    inject_individual_bias,
    reference_labels,
    save_truth,
)

from util import same_dataset

SMALL = SynthConfig(n_per_group=200, seed=5)


class TestGenerateBase:
    def test_deterministic(self):
        a = generate_base(SMALL)
        b = generate_base(SMALL)
        assert same_dataset(a, b)

    def test_boundary_rule(self):
        d = generate_base(SMALL)
        assert np.array_equal(d.labels, (d.numericals[:, 0] >= 0.5).astype(int))

    def test_group_layout(self):
        d = generate_base(SMALL)
        assert d.n == 400
        assert np.array_equal(d.groups[:200], np.ones(200, dtype=int))
        assert np.array_equal(d.groups[200:], np.zeros(200, dtype=int))

    def test_no_injection_no_ground_truth(self):
        cfg = SynthConfig(n_per_group=100, group_shift=0.0, flip_rate=0.0, seed=1)
        d = generate_base(cfg)
        _, truth_g = inject_group_bias(d, cfg)
        _, truth_i = inject_individual_bias(d, cfg)
        assert not truth_g.any()
        assert not truth_i.any()

    def test_features_in_unit_square(self):
        d = generate_base(SMALL)
        assert d.numericals.min() >= 0.0 and d.numericals.max() <= 1.0

    def test_group_feature_marginals_close(self):
        cfg = SynthConfig(n_per_group=1000, seed=2)
        d = generate_base(cfg)
        ref = d.numericals[d.groups == 1]
        tgt = d.numericals[d.groups == 0]
        # same sampler for both groups: means within 3 standard errors
        se = np.sqrt(ref.var(axis=0) / len(ref) + tgt.var(axis=0) / len(tgt))
        assert (np.abs(ref.mean(axis=0) - tgt.mean(axis=0)) < 3 * se).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(dim=3, boundary_weights=(1.0, 0.0))
        with pytest.raises(ValueError):
            SynthConfig(flip_rate=1.5)


class TestInjectGroupBias:
    def test_band_is_marked(self):
        base = generate_base(SMALL)
        biased, truth = inject_group_bias(base, SMALL)
        margin = biased.numericals[:, 0]
        target = biased.groups == 0
        in_band = target & (margin >= 0.5) & (margin < 0.7)
        assert np.array_equal(truth, in_band)
        # band members lost their positive label
        assert not biased.labels[in_band].any()

    def test_reference_group_untouched(self):
        base = generate_base(SMALL)
        biased, truth = inject_group_bias(base, SMALL)
        ref = base.groups == 1
        assert np.array_equal(biased.labels[ref], base.labels[ref])
        assert not truth[ref].any()

    def test_zero_shift_is_identity(self):
        cfg = SynthConfig(n_per_group=100, group_shift=0.0, seed=3)
        base = generate_base(cfg)
        biased, truth = inject_group_bias(base, cfg)
        assert same_dataset(biased, base)
        assert not truth.any()


class TestInjectIndividualBias:
    def test_exact_flip_count(self):
        cfg = SynthConfig(n_per_group=500, flip_rate=0.10, seed=4)
        base = generate_base(cfg)
        flipped, truth = inject_individual_bias(base, cfg)
        assert truth.sum() == 50
        assert (flipped.labels != base.labels).sum() == 50
        assert np.array_equal(flipped.labels != base.labels, truth)

    def test_rate_zero(self):
        cfg = SynthConfig(n_per_group=100, flip_rate=0.0, seed=4)
        base = generate_base(cfg)
        flipped, truth = inject_individual_bias(base, cfg)
        assert same_dataset(flipped, base)
        assert not truth.any()

    def test_rate_one_flips_whole_target_group(self):
        cfg = SynthConfig(n_per_group=100, flip_rate=1.0, seed=4)
        base = generate_base(cfg)
        flipped, truth = inject_individual_bias(base, cfg)
        target = base.groups == 0
        assert truth[target].all()
        assert not truth[~target].any()
        assert np.array_equal(flipped.labels[target], 1 - base.labels[target])

    def test_only_target_group_flipped(self):
        base = generate_base(SMALL)
        flipped, truth = inject_individual_bias(base, SMALL)
        ref = base.groups == 1
        assert np.array_equal(flipped.labels[ref], base.labels[ref])


class TestDetectionAccuracy:
    def test_exact_indicator_scores_one(self):
        truth = np.array([True, False, True, False])
        groups = np.zeros(4, dtype=int)
        b = Estimate([0.9, 0.1, 0.8, 0.2])
        assert detection_accuracy(b, truth, groups) == 1.0

    def test_all_zero_bias_scores_base_rate(self):
        truth = np.zeros(100, dtype=bool)
        truth[:10] = True
        groups = np.zeros(100, dtype=int)
        b = Estimate(np.zeros(100))
        assert detection_accuracy(b, truth, groups) == pytest.approx(0.9)

    def test_undefined_counts_as_not_biased(self):
        truth = np.array([True, False])
        groups = np.zeros(2, dtype=int)
        b = Estimate([np.nan, np.nan])
        assert detection_accuracy(b, truth, groups) == 0.5

    def test_flags_strictly_above_the_bias_threshold(self):
        truth = np.array([False, True])
        groups = np.zeros(2, dtype=int)
        b = Estimate([BIAS_THRESHOLD, np.nextafter(BIAS_THRESHOLD, 1.0)])
        assert detection_accuracy(b, truth, groups) == 1.0
        with pytest.raises(TypeError):
            detection_accuracy(b, truth, groups, threshold=0.9)

    def test_target_group_only(self):
        truth = np.array([False, True])
        groups = np.array([0, 1])  # second sample not in target group
        b = Estimate([0.0, 0.0])
        assert detection_accuracy(b, truth, groups) == 1.0


class TestExport:
    def test_dataset_and_truth_round_trip(self, tmp_path):
        cfg = SynthConfig(n_per_group=50, seed=6)
        base = generate_base(cfg)
        biased, truth = inject_group_bias(base, cfg)
        data_path = tmp_path / "synth.csv"
        schema_path = tmp_path / "schema.txt"
        truth_path = tmp_path / "truth.txt"
        save_dataset(biased, data_path)
        save_schema(biased.schema, schema_path)
        save_truth(truth, truth_path)
        loaded = load_dataset(data_path, load_schema(schema_path))
        assert loaded.n == biased.n
        assert np.allclose(loaded.numericals, biased.numericals)
        assert np.array_equal(loaded.labels, biased.labels)
        assert np.array_equal(np.loadtxt(truth_path, dtype=int).astype(bool), truth)

    def test_reference_labels_reconstruct_fair_world(self):
        base = generate_base(SMALL)
        biased, truth = inject_group_bias(base, SMALL)
        fair = reference_labels(biased, SMALL)
        assert np.array_equal(fair != biased.labels, truth)
