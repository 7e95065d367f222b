"""Edit away injected discrimination and measure the downstream effect.

A logistic-regression model is trained on the corrupted training split
before and after each edit, then evaluated on a held-out test split.
Two edits are compared against a random-removal control: deleting the
highest-bias samples from the adaptively chosen (majority label, group)
cell, and appending mixup synthetics seeded from low-bias samples of
the minority cell.
"""

from dataclasses import replace

import numpy as np

from biasaudit import (
    ComparabilityConfig,
    RemovalPlan,
    apply_plan,
    attribute,
    encode_features,
    evaluate_classifier,
    generate_base,
    inject_group_bias,
    plan_removal,
    stratified_split,
    synthesize_fair_samples,
    train_classifier,
)
from biasaudit.synth import SynthConfig, reference_labels

cfg = SynthConfig(n_per_group=500, group_shift=0.2, seed=0)
data, truth = inject_group_bias(generate_base(cfg), cfg)

train_idx, _, test_idx = stratified_split(data, seed=0)[0]
train = data.subset(train_idx)
test = data.subset(test_idx)

# grade fairness against the fair world: the reference rule the
# generator used before injecting discrimination
fair_test = replace(test, labels=reference_labels(test, cfg))

print(f"train {train.n} / test {test.n}; "
      f"{int(truth[train_idx].sum())} training samples carry injected bias")

# ---------------------------------------------------------------------------
# Score the training data once; both edits reuse the same attribution.
# ---------------------------------------------------------------------------
comparability = ComparabilityConfig(t_r=0.1, t_d=2)
report = attribute(train, comparability, damping=0.1, top_k=0)
budget = int(truth[train_idx].sum())


def evaluate(train_set, label):
    clf = train_classifier(encode_features(train_set), train_set.labels)
    result = evaluate_classifier(clf, fair_test)
    print(f"{label:<18} acc={result.acc:.3f} roc={result.roc_auc:.3f} "
          f"dp={result.dp:.3f} eo={result.eo:.3f} pc={result.pc:.3f} ge={result.ge:.3f}")
    return result


print(f"\nbudget = {budget} samples edited; metrics on the fair test labels")
baseline = evaluate(train, "no edit")

# informed removal: delete the top-bias samples from the majority cell
removal = plan_removal(train, report.bias, budget)
removed = evaluate(apply_plan(train, removal), "informed removal")

# random control at the same budget
rng = np.random.default_rng(0)
ctrl_idx = tuple(int(i) for i in np.sort(rng.choice(train.n, size=budget, replace=False)))
evaluate(apply_plan(train, RemovalPlan(indices=ctrl_idx, budget=budget)), "random removal")

# augmentation: mixup synthetics seeded from low-bias minority samples
augmentation = synthesize_fair_samples(train, report.bias, report.similarity,
                                       m=budget, n_nb=5, rng_seed=0)
evaluate(apply_plan(train, augmentation), "mixup augmentation")

hits = len(set(removal.indices) & set(np.nonzero(truth[train_idx])[0].tolist()))
print(f"\ninformed removal precision: {hits} of its {budget} deletions "
      "are ground-truth biased samples")
