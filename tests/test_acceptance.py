"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
are produced. Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import time

import numpy as np
from scipy import sparse

from biasaudit.attribution import (
    attribute,
    bias_contributions,
    estimate_bias,
    estimate_credibility,
)
from biasaudit.comparability import (
    ComparabilityConfig,
    ComparabilityGraph,
    build_comparability_graph,
)
from biasaudit.data import Dataset, encode_features, stratified_split
from biasaudit.metrics import (
    demographic_parity,
    equalized_odds,
    generalized_entropy,
    prediction_consistency,
    roc_auc,
)
from biasaudit.mitigation import (
    RemovalPlan,
    apply_plan,
    plan_removal,
    synthesize_fair_samples,
)
from biasaudit.model import predict, train_classifier
from biasaudit.similarity import Proximity, rwr_proximity, symmetric_normalize
from biasaudit.synth import (
    SynthConfig,
    detection_accuracy,
    generate_base,
    inject_group_bias,
    inject_individual_bias,
    reference_labels,
)

from util import make_dataset, random_dataset


def check(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def random_graph_dataset(rng, n):
    """Random dataset plus a dense symmetric similarity with positive diagonal."""
    d = random_dataset(rng, n, n_num=1, n_cat=0)
    raw = rng.random((n, n))
    q = (raw + raw.T) / 2
    np.fill_diagonal(q, rng.uniform(0.5, 1.0, size=n))
    return d, Proximity(matrix=q)


def grid_scan_minimizer(weights, targets):
    """Independent oracle: scan the weighted squared-loss objective on a 1e-4 grid."""
    grid = np.linspace(0.0, 1.0, 10_001)
    objective = ((grid[:, None] - targets[None, :]) ** 2 * weights[None, :]).sum(axis=1)
    return grid[np.argmin(objective)]


def test_criterion_1_synthetic_bias_detection():
    cfg = SynthConfig(n_per_group=500, group_shift=0.2, flip_rate=0.10, seed=0)
    base = generate_base(cfg)
    results = {}
    for name, (data, truth) in {
        "group-shift": inject_group_bias(base, cfg),
        "individual-flip": inject_individual_bias(base, cfg),
    }.items():
        start = time.perf_counter()
        report = attribute(data, ComparabilityConfig(t_r=0.1, t_d=2), damping=0.1, top_k=0)
        elapsed = time.perf_counter() - start
        results[name] = (detection_accuracy(report.bias, truth, data.groups), elapsed)
    ok = all(acc >= 0.95 and t < 60.0 for acc, t in results.values())
    detail = ", ".join(f"{k} accuracy={a:.3f} in {t:.1f}s" for k, (a, t) in results.items())
    check(1, f"synthetic detection >= 0.95 within 60s ({detail})", ok)


def test_criterion_2_closed_form_matches_grid_argmin():
    rng = np.random.default_rng(42)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        d, q = random_graph_dataset(rng, n)
        cred = estimate_credibility(d, q)
        bias = estimate_bias(d, q, cred)
        for i in range(n):
            w_cred = np.where(d.groups == d.groups[i], q.rows([i])[0], 0.0)
            t_cred = (d.labels == d.labels[i]).astype(float)
            if w_cred.sum() > 0:
                if abs(cred.values[i] - grid_scan_minimizer(w_cred, t_cred)) > 1e-3:
                    failures += 1
            w_bias = np.where(d.groups != d.groups[i], q.rows([i])[0] * cred.values, 0.0)
            t_bias = (d.labels != d.labels[i]).astype(float)
            if bias.defined[i]:
                if abs(bias.values[i] - grid_scan_minimizer(w_bias, t_bias)) > 1e-3:
                    failures += 1
    check(2, f"closed form equals grid-scan argmin on 50 instances ({failures} failures)",
          failures == 0)


def test_criterion_3_rwr_backend_agreement():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 201))
        upper = np.triu(rng.random((n, n)) < 0.05, k=1)
        dense_adj = upper | upper.T
        g = ComparabilityGraph(n=n, adjacency=sparse.csr_matrix(dense_adj),
                               degree=dense_adj.sum(axis=1).astype(int))
        w = symmetric_normalize(g)
        every = np.arange(n)
        for p in (0.1, 0.5, 0.9):
            oracle = np.linalg.solve(np.eye(n) - p * w.toarray(), (1 - p) * np.eye(n))
            walk = Proximity(w=w, damping=p)  # solved at every damping, and inverted
            for q in (walk.rows(every), walk.inverted().rows(every)):
                worst = max(worst, float(np.abs(q - oracle).max()))
        solved = rwr_proximity(w, damping=0.0)
        for q0 in (solved.rows(every), solved.inverted().rows(every)):
            assert np.array_equal(q0, np.eye(n))
    check(3, f"proximity agrees with the dense solve oracle within 1e-8 "
             f"(worst {worst:.2e}), damping 0 gives the identity exactly", worst < 1e-8)


def test_criterion_4_contribution_decomposition():
    cfg = SynthConfig(n_per_group=500, seed=0)
    base = generate_base(cfg)
    suite = [inject_group_bias(base, cfg)[0], inject_individual_bias(base, cfg)[0]]
    rng = np.random.default_rng(3)
    worst = 0.0
    checked = 0
    for data in suite:
        graph = build_comparability_graph(data, ComparabilityConfig(0.1, 2))
        q = rwr_proximity(symmetric_normalize(graph), damping=0.1)
        cred = estimate_credibility(data, q)
        bias = estimate_bias(data, q, cred)
        # the shares from solved rows, and from the inverse as `attribute` reads them
        for rows_of in (q, q.inverted()):
            for i in range(data.n):
                if not bias.defined[i]:
                    continue
                total = sum(e.contribution
                            for e in bias_contributions(data, rows_of, cred, i, data.n))
                worst = max(worst, abs(total - bias.values[i]))
                checked += 1
        # every share `attribute` reports, read from the cross-group block
        report = attribute(data, ComparabilityConfig(0.1, 2), damping=0.1, top_k=data.n)
        totals = np.bincount(report.explained[0], weights=report.explained[2], minlength=data.n)
        ok = report.bias.defined
        assert np.array_equal(ok, bias.defined)
        worst = max(worst, float(np.abs(totals[ok] - report.bias.values[ok]).max(initial=0.0)))
        checked += int(ok.sum())
    for _ in range(10):
        d, q = random_graph_dataset(rng, 30)
        cred = estimate_credibility(d, q)
        bias = estimate_bias(d, q, cred)
        for i in range(d.n):
            if not bias.defined[i]:
                continue
            total = sum(e.contribution for e in bias_contributions(d, q, cred, i, d.n))
            worst = max(worst, abs(total - bias.values[i]))
            checked += 1
    check(4, f"contributions sum to the bias within 1e-10 "
             f"({checked} defined samples, worst {worst:.2e})", worst <= 1e-10)


def _mitigation_run(seed):
    """One seeded experiment: informed removal vs random removal at the same budget.

    Fairness of the downstream model is measured on the held-out test
    split against the reference-rule labels (the synthetic fair world);
    measuring against the injected labels would reward a model for
    reproducing the injected discrimination.
    """
    cfg = SynthConfig(n_per_group=500, group_shift=0.2, seed=seed)
    data, truth = inject_group_bias(generate_base(cfg), cfg)
    train_idx, _, test_idx = stratified_split(data, seed=seed)[0]
    train = data.subset(train_idx)
    test = data.subset(test_idx)
    fair_test = Dataset(test.schema, test.numericals, test.categoricals,
                        reference_labels(test, cfg), test.groups)

    report = attribute(train, ComparabilityConfig(0.1, 2), damping=0.1, top_k=0)
    budget = int(truth[train_idx].sum())

    def fairness_of(train_set):
        clf = train_classifier(encode_features(train_set), train_set.labels)
        _, pred = predict(clf, encode_features(fair_test))
        return (demographic_parity(pred, fair_test.groups),
                equalized_odds(pred, fair_test.labels, fair_test.groups))

    informed = fairness_of(apply_plan(train, plan_removal(train, report.bias, budget)))
    rng = np.random.default_rng(seed)
    idx = tuple(int(i) for i in np.sort(rng.choice(train.n, size=budget, replace=False)))
    control = fairness_of(apply_plan(train, RemovalPlan(indices=idx, budget=budget)))
    return informed, control


def test_criterion_5_mitigation_beats_random_removal():
    informed, control = [], []
    for seed in range(5):
        inf, ctl = _mitigation_run(seed)
        informed.append(inf)
        control.append(ctl)
    informed = np.mean(informed, axis=0)
    control = np.mean(control, axis=0)
    dp_margin = control[0] - informed[0]
    eo_lower = informed[1] < control[1]
    check(5, f"informed removal beats random removal over 5 seeds "
             f"(DP {informed[0]:.3f} vs {control[0]:.3f}, margin {dp_margin:.3f} >= 0.05; "
             f"EO {informed[1]:.3f} vs {control[1]:.3f})",
          dp_margin >= 0.05 and eo_lower)


def test_criterion_6_augmentation_coherence():
    rng = np.random.default_rng(11)
    d = random_dataset(rng, 80, n_num=2, n_cat=2, n_levels=3)
    labels = d.labels.copy()
    labels[:40] = 0  # force a clear minority
    d = make_dataset(d.numericals, d.categoricals, labels, d.groups)
    graph = build_comparability_graph(d, ComparabilityConfig(0.5, 2))
    q = rwr_proximity(symmetric_normalize(graph), damping=0.1)
    cred = estimate_credibility(d, q)
    bias = estimate_bias(d, q, cred)
    minority_before = d.labels.mean()
    plan = synthesize_fair_samples(d, bias, q, m=30, n_nb=5, rng_seed=5)
    lo = np.minimum(d.numericals[plan.seeds], d.numericals[plan.targets])
    hi = np.maximum(d.numericals[plan.seeds], d.numericals[plan.targets])
    arr = plan.rows.numericals
    box_ok = bool(((arr >= lo - 1e-12) & (arr <= hi + 1e-12)).all())
    cat = plan.rows.categoricals
    cat_ok = bool(((cat == d.categoricals[plan.seeds])
                   | (cat == d.categoricals[plan.targets])).all())
    augmented = apply_plan(d, plan)
    balance_ok = augmented.labels.mean() > minority_before
    check(6, f"synthetics stay in the seed-target box ({box_ok}), categorical values come "
             f"from seed or target ({cat_ok}), minority fraction rises "
             f"{minority_before:.3f} -> {augmented.labels.mean():.3f}",
          box_ok and cat_ok and balance_ok)


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(13)
    roc_ok = True
    for _ in range(10):
        n = int(rng.integers(10, 51))
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        roc_ok &= abs(roc_auc(scores, labels) - oracle) <= 1e-12

    d = random_dataset(rng, 50, n_num=2, n_cat=1)
    matrix = encode_features(d)
    clf = train_classifier(matrix, d.labels)
    pc = prediction_consistency(clf, d)
    unchanged = 0
    for i in range(d.n):
        row = matrix[i].copy()
        _, before = predict(clf, row.reshape(1, -1))
        row[-1] = 1.0 - row[-1]
        _, after = predict(clf, row.reshape(1, -1))
        unchanged += int(before[0] == after[0])
    pc_ok = abs(pc - unchanged / d.n) <= 1e-12

    ge = generalized_entropy(np.array([0, 1]), np.array([1, 0]))  # benefits (0, 2)
    ge_ok = abs(ge - 0.5) <= 1e-12
    check(7, f"ROC matches pairwise counting ({roc_ok}), PC matches flip recount ({pc_ok}), "
             f"GE on benefits (0,2) equals 0.5 ({ge_ok})", roc_ok and pc_ok and ge_ok)


def test_criterion_8_range_and_flag_invariants():
    rng = np.random.default_rng(17)
    range_ok = True
    for _ in range(10):
        d, q = random_graph_dataset(rng, 40)
        cred = estimate_credibility(d, q)
        bias = estimate_bias(d, q, cred)
        range_ok &= bool((cred.values[cred.defined] >= 0).all()
                         and (cred.values[cred.defined] <= 1).all())
        range_ok &= bool((bias.values[bias.defined] >= 0).all()
                         and (bias.values[bias.defined] <= 1).all())
    cfg = SynthConfig(n_per_group=300, seed=1)
    data, _ = inject_group_bias(generate_base(cfg), cfg)
    report = attribute(data, ComparabilityConfig(0.1, 2), damping=0.1, top_k=0)
    range_ok &= bool((report.credibility.values[report.credibility.defined] <= 1).all())
    range_ok &= bool((report.bias.values[report.bias.defined] <= 1).all())

    # isolated vertex: one sample far away from everything else
    num = np.concatenate([np.linspace(0.0, 0.08, 9), [0.9]])
    d_iso = make_dataset(num, [], [1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
                         [0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    rep = attribute(d_iso, ComparabilityConfig(0.05, 2), damping=0.1, top_k=0)
    iso_ok = (rep.credibility.defined[9] and rep.credibility.values[9] == 1.0
              and not rep.bias.defined[9])
    check(8, f"defined credibility and bias stay in [0, 1] ({range_ok}); isolated vertex "
             f"has credibility 1 and undefined bias ({iso_ok})", range_ok and iso_ok)
