import numpy as np
import pytest

from biasaudit.attribution import Estimate, attribute
from biasaudit.comparability import ComparabilityConfig
from biasaudit.mitigation import (
    ClassBalanceTieError,
    RemovalPlan,
    apply_plan,
    mix_rows,
    plan_removal,
    select_edit_subgroup,
    synthesize_fair_samples,
    write_plan,
)
from biasaudit.similarity import SimilarityMatrix

from util import make_dataset, random_dataset


def labeled_dataset(pos_frac, n=10):
    n_pos = int(round(pos_frac * n))
    labels = np.array([1] * n_pos + [0] * (n - n_pos))
    groups = np.tile([0, 1], n // 2)
    return make_dataset(np.linspace(0, 1, n), [], labels, groups)


def bias_of(values, defined=None):
    values = np.asarray(values, dtype=float)
    if defined is None:
        defined = ~np.isnan(values)
    return Estimate(values=np.where(defined, values, np.nan), defined=defined)


class TestSelectEditSubgroup:
    def test_majority_positive_removal(self):
        sel = select_edit_subgroup(labeled_dataset(0.7), "removal")
        assert (sel.target_label, sel.target_group) == (1, 1)

    def test_minority_positive_augmentation(self):
        sel = select_edit_subgroup(labeled_dataset(0.2), "augmentation")
        assert (sel.target_label, sel.target_group) == (1, 0)

    def test_majority_negative_removal(self):
        sel = select_edit_subgroup(labeled_dataset(0.2), "removal")
        assert (sel.target_label, sel.target_group) == (0, 0)

    def test_minority_negative_augmentation(self):
        sel = select_edit_subgroup(labeled_dataset(0.7), "augmentation")
        assert (sel.target_label, sel.target_group) == (0, 1)

    def test_exact_tie_demands_override(self):
        with pytest.raises(ClassBalanceTieError, match="tie_label"):
            select_edit_subgroup(labeled_dataset(0.5), "removal")
        sel = select_edit_subgroup(labeled_dataset(0.5), "removal", tie_label=1)
        assert (sel.target_label, sel.target_group) == (1, 1)

    def test_single_label_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            select_edit_subgroup(labeled_dataset(1.0), "removal")


class TestPlanRemoval:
    def test_zero_budget(self):
        d = labeled_dataset(0.7)
        plan = plan_removal(d, bias_of(np.zeros(10)), 0)
        assert plan.indices == ()

    def test_sort_semantics(self):
        # candidates are (label=1, group=1); give them bias 0.9, 0.2, 0.7
        labels = np.array([1, 1, 1, 0, 0, 1])
        groups = np.array([1, 1, 1, 0, 1, 0])
        d = make_dataset(np.linspace(0, 1, 6), [], labels, groups)
        b = bias_of([0.9, 0.2, 0.7, 0.0, 0.0, 0.95])
        plan = plan_removal(d, b, 2)
        assert plan.indices == (0, 2)

    def test_budget_truncates_with_warning(self):
        d = labeled_dataset(0.7)
        with pytest.warns(UserWarning, match="truncated"):
            plan = plan_removal(d, bias_of(np.zeros(10)), 50)
        sel = select_edit_subgroup(d, "removal")
        expected = ((d.labels == sel.target_label) & (d.groups == sel.target_group)).sum()
        assert len(plan.indices) == expected

    def test_undefined_ranks_as_zero(self):
        labels = np.array([1, 1, 1, 0])
        groups = np.array([1, 1, 1, 0])
        d = make_dataset(np.linspace(0, 1, 4), [], labels, groups)
        values = np.array([np.nan, 0.4, np.nan, 0.0])
        b = bias_of(values, defined=np.array([False, True, False, True]))
        plan = plan_removal(d, b, 2)
        assert plan.indices == (1, 0)  # defined 0.4 first, then lowest undefined index

    def test_ties_break_by_index(self):
        labels = np.array([1, 1, 1, 0])
        groups = np.array([1, 1, 1, 0])
        d = make_dataset(np.linspace(0, 1, 4), [], labels, groups)
        plan = plan_removal(d, bias_of([0.5, 0.5, 0.5, 0.5]), 2)
        assert plan.indices == (0, 1)


def mixup_fixture(n=40, seed=0):
    """Minority-positive protected pool with categoricals and full similarity."""
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, n, n_num=2, n_cat=2, n_levels=3)
    labels = d.labels.copy()
    labels[: n // 2] = 0  # make positives the minority
    d = make_dataset(d.numericals, d.categoricals, labels, d.groups)
    raw = rng.random((n, n)) * 0.5 + 0.25
    q = SimilarityMatrix(matrix=(raw + raw.T) / 2)
    b = Estimate(values=rng.random(n), defined=np.ones(n, dtype=bool))
    return d, q, b


class TestSynthesizeFairSamples:
    def test_budget_and_inheritance(self):
        d, q, b = mixup_fixture()
        sel = select_edit_subgroup(d, "augmentation")
        plan = synthesize_fair_samples(d, b, q, m=8, n_nb=5, rng_seed=1)
        assert len(plan.samples) == 8
        for s in plan.samples:
            assert s.label == d.labels[s.seed_index] == sel.target_label
            assert s.group == d.groups[s.seed_index] == sel.target_group

    def test_numericals_inside_seed_target_box(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=20, rng_seed=2)
        for s in plan.samples:
            lo = np.minimum(d.numericals[s.seed_index], d.numericals[s.target_index])
            hi = np.maximum(d.numericals[s.seed_index], d.numericals[s.target_index])
            assert (np.array(s.numericals) >= lo - 1e-12).all()
            assert (np.array(s.numericals) <= hi + 1e-12).all()

    def test_categoricals_from_seed_or_target(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=20, rng_seed=3)
        for s in plan.samples:
            for f, v in enumerate(s.categoricals):
                assert v in (d.categoricals[s.seed_index, f], d.categoricals[s.target_index, f])

    def test_mixup_is_linear_interpolation(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=10, rng_seed=4)
        for s in plan.samples:
            expected = s.lam * d.numericals[s.seed_index] + (1 - s.lam) * d.numericals[s.target_index]
            assert np.allclose(s.numericals, expected)

    def test_mixup_endpoints(self):
        d, _, _ = mixup_fixture()
        rng = np.random.default_rng(0)
        num, cat = mix_rows(d, 3, 7, 1.0, rng)  # lam=1: the seed exactly
        assert np.array_equal(num, d.numericals[3])
        assert np.array_equal(cat, d.categoricals[3])
        num, cat = mix_rows(d, 3, 7, 0.0, rng)  # lam=0: the target exactly
        assert np.array_equal(num, d.numericals[7])
        assert np.array_equal(cat, d.categoricals[7])

    def test_mixup_quarter_weight(self):
        d, _, _ = mixup_fixture()
        rng = np.random.default_rng(1)
        # seed value 0.2, target 0.6 at lam=0.25 -> 0.25*0.2 + 0.75*0.6 = 0.5
        d2 = make_dataset([[0.2], [0.6]], [], [0, 1], [0, 1])
        num, _ = mix_rows(d2, 0, 1, 0.25, rng)
        assert num[0] == pytest.approx(0.5)

    def test_target_is_same_group_same_label(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=15, rng_seed=5)
        for s in plan.samples:
            assert d.groups[s.target_index] == d.groups[s.seed_index]
            assert d.labels[s.target_index] == d.labels[s.seed_index]
            assert s.target_index != s.seed_index

    def test_reproducible(self):
        d, q, b = mixup_fixture()
        p1 = synthesize_fair_samples(d, b, q, m=12, rng_seed=9)
        p2 = synthesize_fair_samples(d, b, q, m=12, rng_seed=9)
        assert p1 == p2

    def test_zero_budget_empty_plan(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=0, rng_seed=0)
        assert plan.samples == ()
        assert apply_plan(d, plan).equals(d)

    def test_negative_budget_rejected(self):
        d, q, b = mixup_fixture()
        with pytest.raises(ValueError, match="budget must be non-negative"):
            synthesize_fair_samples(d, b, q, m=-5, rng_seed=0)

    def test_all_zero_weights_rejected(self):
        d, q, b = mixup_fixture()
        ones = Estimate(values=np.ones(d.n), defined=np.ones(d.n, dtype=bool))
        with pytest.raises(ValueError, match="weights"):
            synthesize_fair_samples(d, ones, q, m=3, rng_seed=0)

    def test_neighborless_pool_rejected(self):
        # pool = (label 1, group 0) = rows 0 and 1, but they have zero
        # similarity to each other: no eligible mixup target exists
        labels = np.array([1, 1, 0, 0, 0, 0])
        groups = np.array([0, 0, 1, 1, 1, 1])
        d = make_dataset(np.linspace(0, 1, 6), [], labels, groups)
        q = np.full((6, 6), 0.2)
        q[0, 1] = q[1, 0] = 0.0
        np.fill_diagonal(q, 0.5)
        sim = SimilarityMatrix(matrix=q)
        b = Estimate(values=np.zeros(6), defined=np.ones(6, dtype=bool))
        with pytest.raises(ValueError, match="neighbor"):
            synthesize_fair_samples(d, b, sim, m=2, rng_seed=0)

    def test_undefined_bias_gets_full_weight(self):
        d, q, _ = mixup_fixture()
        sel = select_edit_subgroup(d, "augmentation")
        pool = np.nonzero((d.labels == sel.target_label) & (d.groups == sel.target_group))[0]
        values = np.ones(d.n)  # weight 0 everywhere ...
        defined = np.ones(d.n, dtype=bool)
        defined[pool[0]] = False  # ... except one undefined candidate with weight 1
        b = Estimate(values=np.where(defined, values, np.nan), defined=defined)
        plan = synthesize_fair_samples(d, b, q, m=5, rng_seed=0)
        assert all(s.seed_index == pool[0] for s in plan.samples)


class TestApplyPlan:
    def test_empty_removal_is_identity(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, 8)
        out = apply_plan(d, RemovalPlan(indices=(), budget=0))
        assert out.equals(d)

    def test_removal_preserves_order(self):
        d = make_dataset([0.0, 0.25, 0.5, 0.75, 1.0], [], [0, 1, 0, 1, 0], [0, 1, 0, 1, 0])
        out = apply_plan(d, RemovalPlan(indices=(3, 1), budget=2))
        assert out.n == 3
        assert np.allclose(out.numericals[:, 0], [0.0, 0.5, 1.0])

    def test_augmentation_appends_after_originals(self):
        d, q, b = mixup_fixture(n=20)
        plan = synthesize_fair_samples(d, b, q, m=3, rng_seed=7)
        out = apply_plan(d, plan)
        assert out.n == 23
        assert np.array_equal(out.numericals[:20], d.numericals)
        for offset, s in enumerate(plan.samples):
            assert np.allclose(out.numericals[20 + offset], s.numericals)
            assert out.labels[20 + offset] == s.label

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 5)
        with pytest.raises(IndexError):
            apply_plan(d, RemovalPlan(indices=(9,), budget=1))

    def test_removal_changes_only_selected_cell(self):
        d = labeled_dataset(0.7, n=20)
        b = bias_of(np.linspace(0, 1, 20))
        sel = select_edit_subgroup(d, "removal")
        plan = plan_removal(d, b, 3)
        out = apply_plan(d, plan)

        def cell_counts(ds):
            return {(y, s): int(((ds.labels == y) & (ds.groups == s)).sum())
                    for y in (0, 1) for s in (0, 1)}

        before, after = cell_counts(d), cell_counts(out)
        for cell in before:
            expected = before[cell] - (3 if cell == (sel.target_label, sel.target_group) else 0)
            assert after[cell] == expected

    def test_balance_direction(self):
        d = labeled_dataset(0.7, n=20)
        b = bias_of(np.linspace(0, 1, 20))
        removed = apply_plan(d, plan_removal(d, b, 4))
        assert removed.labels.mean() < d.labels.mean()

        d2, q, b2 = mixup_fixture()
        minority_frac = d2.labels.mean()
        augmented = apply_plan(d2, synthesize_fair_samples(d2, b2, q, m=6, rng_seed=8))
        assert augmented.labels.mean() > minority_frac


class TestPlanSerialization:
    def test_removal_plan_text(self, tmp_path):
        d = labeled_dataset(0.7)
        plan = RemovalPlan(indices=(4, 2, 0), budget=3)
        path = tmp_path / "plan.txt"
        write_plan(plan, d, path)
        lines = path.read_text().splitlines()
        assert "budget=3" in lines[0]
        assert lines[1:] == ["4", "2", "0"]

    def test_augmentation_plan_text(self, tmp_path):
        d, q, b = mixup_fixture(n=20)
        plan = synthesize_fair_samples(d, b, q, m=2, rng_seed=10)
        path = tmp_path / "plan.txt"
        write_plan(plan, d, path)
        lines = path.read_text().splitlines()
        assert "budget=2" in lines[0] and "neighbors=5" in lines[0]
        assert lines[1].startswith("# ")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 2
        # numericals, categorical tokens, group, label, seed, target, lambda
        assert len(rows[0]) == 2 + 2 + 2 + 3


def test_full_pipeline_plans_from_attribution():
    rng = np.random.default_rng(11)
    d = random_dataset(rng, 40, n_num=1, n_cat=0)
    report = attribute(d, ComparabilityConfig(0.3, 2))
    plan = plan_removal(d, report.bias, 5)
    out = apply_plan(d, plan)
    assert out.n == d.n - len(plan.indices)
