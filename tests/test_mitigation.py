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
from biasaudit.similarity import Proximity

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
        assert select_edit_subgroup(labeled_dataset(0.7), "removal") == (1, 1)

    def test_minority_positive_augmentation(self):
        assert select_edit_subgroup(labeled_dataset(0.2), "augmentation") == (1, 0)

    def test_majority_negative_removal(self):
        assert select_edit_subgroup(labeled_dataset(0.2), "removal") == (0, 0)

    def test_minority_negative_augmentation(self):
        assert select_edit_subgroup(labeled_dataset(0.7), "augmentation") == (0, 1)

    def test_exact_tie_demands_override(self):
        with pytest.raises(ClassBalanceTieError, match="tie_label"):
            select_edit_subgroup(labeled_dataset(0.5), "removal")
        assert select_edit_subgroup(labeled_dataset(0.5), "removal", tie_label=1) == (1, 1)

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
        label, group = select_edit_subgroup(d, "removal")
        expected = ((d.labels == label) & (d.groups == group)).sum()
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

    def test_bias_from_another_table_rejected(self):
        d = labeled_dataset(0.7, n=20)
        with pytest.raises(ValueError, match="Estimate over 20 rows .* 10 rows"):
            plan_removal(d.subset(np.arange(10)), bias_of(np.linspace(0, 1, 20)), 3)


def mixup_fixture(n=40, seed=0):
    """Minority-positive protected pool with categoricals and full similarity."""
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, n, n_num=2, n_cat=2, n_levels=3)
    labels = d.labels.copy()
    labels[: n // 2] = 0  # make positives the minority
    d = make_dataset(d.numericals, d.categoricals, labels, d.groups)
    raw = rng.random((n, n)) * 0.5 + 0.25
    q = Proximity(matrix=(raw + raw.T) / 2)
    b = Estimate(values=rng.random(n), defined=np.ones(n, dtype=bool))
    return d, q, b


def mix_one(d, seed, target, lam, rng):
    """One mixed row; each categorical takes the seed's value with probability lam."""
    rows = mix_rows(d, [seed], [target], [lam], rng.random((1, d.n_categorical)) < lam)
    return rows.numericals[0], rows.categoricals[0]


class TestSynthesizeFairSamples:
    def test_inputs_from_another_table_rejected(self):
        d, q, b = mixup_fixture()
        half = d.subset(np.arange(20))
        with pytest.raises(ValueError, match="Estimate over 40 rows .* 20 rows"):
            synthesize_fair_samples(half, b, q, m=4)
        half_b = Estimate(values=b.values[:20], defined=b.defined[:20])
        with pytest.raises(ValueError, match="Proximity over 40 rows .* 20 rows"):
            synthesize_fair_samples(half, half_b, q, m=4)

    def test_budget_and_inheritance(self):
        d, q, b = mixup_fixture()
        label, group = select_edit_subgroup(d, "augmentation")
        plan = synthesize_fair_samples(d, b, q, m=8, n_nb=5, rng_seed=1)
        assert plan.rows.n == len(plan.seeds) == len(plan.targets) == len(plan.lams) == 8
        assert np.array_equal(plan.rows.labels, d.labels[plan.seeds])
        assert np.array_equal(plan.rows.groups, d.groups[plan.seeds])
        assert (plan.rows.labels == label).all() and (plan.rows.groups == group).all()

    def test_numericals_inside_seed_target_box(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=20, rng_seed=2)
        lo = np.minimum(d.numericals[plan.seeds], d.numericals[plan.targets])
        hi = np.maximum(d.numericals[plan.seeds], d.numericals[plan.targets])
        assert (plan.rows.numericals >= lo - 1e-12).all()
        assert (plan.rows.numericals <= hi + 1e-12).all()

    def test_categoricals_from_seed_or_target(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=20, rng_seed=3)
        cat = plan.rows.categoricals
        assert ((cat == d.categoricals[plan.seeds]) | (cat == d.categoricals[plan.targets])).all()

    def test_mixup_is_linear_interpolation(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=10, rng_seed=4)
        lam = plan.lams[:, None]
        expected = lam * d.numericals[plan.seeds] + (1 - lam) * d.numericals[plan.targets]
        assert np.allclose(plan.rows.numericals, expected)

    def test_mixup_endpoints(self):
        d, _, _ = mixup_fixture()
        rng = np.random.default_rng(0)
        num, cat = mix_one(d, 3, 7, 1.0, rng)  # lam=1: the seed exactly
        assert np.array_equal(num, d.numericals[3])
        assert np.array_equal(cat, d.categoricals[3])
        num, cat = mix_one(d, 3, 7, 0.0, rng)  # lam=0: the target exactly
        assert np.array_equal(num, d.numericals[7])
        assert np.array_equal(cat, d.categoricals[7])

    def test_mixup_quarter_weight(self):
        d, _, _ = mixup_fixture()
        rng = np.random.default_rng(1)
        # seed value 0.2, target 0.6 at lam=0.25 -> 0.25*0.2 + 0.75*0.6 = 0.5
        d2 = make_dataset([[0.2], [0.6]], [], [0, 1], [0, 1])
        num, _ = mix_one(d2, 0, 1, 0.25, rng)
        assert num[0] == pytest.approx(0.5)

    def test_target_is_same_group_same_label(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=15, rng_seed=5)
        assert np.array_equal(d.groups[plan.targets], d.groups[plan.seeds])
        assert np.array_equal(d.labels[plan.targets], d.labels[plan.seeds])
        assert (plan.targets != plan.seeds).all()

    def test_reproducible(self):
        d, q, b = mixup_fixture()
        p1 = synthesize_fair_samples(d, b, q, m=12, rng_seed=9)
        p2 = synthesize_fair_samples(d, b, q, m=12, rng_seed=9)
        assert p1.rows.equals(p2.rows)
        for column in ("seeds", "targets", "lams"):
            assert np.array_equal(getattr(p1, column), getattr(p2, column))
        assert (p1.budget, p1.n_neighbors) == (p2.budget, p2.n_neighbors)

    def test_zero_budget_empty_plan(self):
        d, q, b = mixup_fixture()
        plan = synthesize_fair_samples(d, b, q, m=0, rng_seed=0)
        assert plan.rows.n == 0 and plan.seeds.size == 0
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
        sim = Proximity(matrix=q)
        b = Estimate(values=np.zeros(6), defined=np.ones(6, dtype=bool))
        with pytest.raises(ValueError, match="neighbor"):
            synthesize_fair_samples(d, b, sim, m=2, rng_seed=0)

    def test_undefined_bias_gets_full_weight(self):
        d, q, _ = mixup_fixture()
        label, group = select_edit_subgroup(d, "augmentation")
        pool = np.nonzero((d.labels == label) & (d.groups == group))[0]
        values = np.ones(d.n)  # weight 0 everywhere ...
        defined = np.ones(d.n, dtype=bool)
        defined[pool[0]] = False  # ... except one undefined candidate with weight 1
        b = Estimate(values=np.where(defined, values, np.nan), defined=defined)
        plan = synthesize_fair_samples(d, b, q, m=5, rng_seed=0)
        assert (plan.seeds == pool[0]).all()


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
        assert np.allclose(out.numericals[20:], plan.rows.numericals)
        assert np.array_equal(out.labels[20:], plan.rows.labels)

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 5)
        with pytest.raises(IndexError):
            apply_plan(d, RemovalPlan(indices=(9,), budget=1))

    def test_augmentation_provenance_out_of_range_rejected(self):
        d, q, b = mixup_fixture(n=20)
        plan = synthesize_fair_samples(d, b, q, m=3, rng_seed=7)
        with pytest.raises(IndexError, match="provenance"):
            apply_plan(d.subset(np.arange(int(plan.targets.max()))), plan)

    def test_removal_changes_only_selected_cell(self):
        d = labeled_dataset(0.7, n=20)
        b = bias_of(np.linspace(0, 1, 20))
        cell = select_edit_subgroup(d, "removal")
        plan = plan_removal(d, b, 3)
        out = apply_plan(d, plan)

        def cell_counts(ds):
            return {(y, s): int(((ds.labels == y) & (ds.groups == s)).sum())
                    for y in (0, 1) for s in (0, 1)}

        before, after = cell_counts(d), cell_counts(out)
        for c in before:
            assert after[c] == before[c] - (3 if c == cell else 0)

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
        plan = RemovalPlan(indices=(4, 2, 0), budget=3)
        path = tmp_path / "plan.txt"
        write_plan(plan, path)
        lines = path.read_text().splitlines()
        assert "budget=3" in lines[0]
        assert lines[1:] == ["4", "2", "0"]

    def test_augmentation_plan_text(self, tmp_path):
        d, q, b = mixup_fixture(n=20)
        plan = synthesize_fair_samples(d, b, q, m=2, rng_seed=10)
        path = tmp_path / "plan.txt"
        write_plan(plan, path)
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
