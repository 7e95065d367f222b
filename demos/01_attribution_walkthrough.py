"""Walk through per-sample bias attribution on a tiny loan-style table.

One applicant from the protected group was denied while every
comparable privileged-group applicant with near-identical conditions
was approved. The walkthrough builds the comparability graph, derives
walk-based proximity, and shows how the denial is scored and explained.
"""

import numpy as np

from biasaudit import (
    ComparabilityConfig,
    attribute,
    build_comparability_graph,
    rwr_proximity,
    symmetric_normalize,
)
from biasaudit.data import Dataset, FeatureSchema

# ---------------------------------------------------------------------------
# A hand-made dataset: income and tenure are already scaled to [0, 1],
# job type is categorical, s=1 is the historically favored group, and
# y=1 means the loan was approved. Applicant 5 is a denied privileged
# applicant sitting among approved ones: noise the scoring should
# discount rather than read as counter-evidence.
# ---------------------------------------------------------------------------
schema = FeatureSchema(
    numerical_names=("income", "tenure"),
    categorical_names=("job",),
    label_name="approved",
    group_name="s",
)

#            income tenure   job        s  approved
rows = [
    (0.52, 0.50, 0, 0, 0),   # <- the denied protected-group applicant
    (0.50, 0.52, 0, 1, 1),
    (0.55, 0.48, 0, 1, 1),
    (0.49, 0.47, 1, 1, 1),
    (0.54, 0.55, 0, 1, 1),
    (0.51, 0.53, 0, 1, 0),   # <- denied privileged applicant, out of line
    (0.10, 0.15, 1, 1, 0),   # far away: low income, denied, both groups
    (0.12, 0.10, 1, 0, 0),
    (0.90, 0.88, 0, 1, 1),   # far away: high income, approved
    (0.88, 0.92, 0, 0, 1),
]
num = np.array([r[:2] for r in rows])
cat = np.array([[r[2]] for r in rows])
groups = np.array([r[3] for r in rows])
labels = np.array([r[4] for r in rows])
data = Dataset(schema, num, cat, labels, groups, category_levels=(("clerical", "manual"),))

print(f"{data.n} applicants, {groups.sum()} privileged / {(1 - groups).sum()} protected")
print(f"approval rate by group: s=1 {labels[groups == 1].mean():.2f}, "
      f"s=0 {labels[groups == 0].mean():.2f}")

# ---------------------------------------------------------------------------
# Step 1: which applicants are comparable at all? Two applicants are
# comparable when every numerical feature differs by at most t_r and at
# most t_d categorical features differ.
# ---------------------------------------------------------------------------
cfg = ComparabilityConfig(t_r=0.1, t_d=1)
graph = build_comparability_graph(data, cfg)
print(f"\ncomparability graph: {graph.edge_count} edges, degrees {graph.degree.tolist()}")

# ---------------------------------------------------------------------------
# Step 2: local comparability alone misses structure, so a damped walk
# turns the graph into a global proximity matrix. Damping 0.1 keeps the
# proximity strongly local.
# ---------------------------------------------------------------------------
proximity = rwr_proximity(symmetric_normalize(graph), damping=0.1)
print("proximity of applicant 0 to the others:",
      np.round(proximity.rows([0])[0], 3))

# ---------------------------------------------------------------------------
# Step 3: credibility and bias in one call. The denied protected
# applicant 0 stands out; the approved privileged applicants around it
# also score high, which is the same pattern read as unearned advantage.
# Applicant 5's denial disagrees with its own group's treatment, so its
# credibility dips below its neighbors'.
# ---------------------------------------------------------------------------
report = attribute(data, cfg, damping=0.1, top_k=9)
print("\nindex  s  approved  credibility    bias")
for i in range(data.n):
    bias = f"{report.bias.values[i]:.4f}" if report.bias.defined[i] else "undefined"
    print(f"{i:>5}  {data.groups[i]}  {data.labels[i]:>8}  "
          f"{report.credibility.values[i]:>11.4f}  {bias:>9}")

# ---------------------------------------------------------------------------
# Step 4: explanations. Each contributor is an other-group applicant in
# the evidence pool; only credible, opposite treatments earn a positive
# share. Applicant 5 shows up with share 0.0000 (same treatment as the
# query), yet it still matters: its credible denial is why the score is
# 0.81 rather than 1.0.
# ---------------------------------------------------------------------------
explanations = report.explanations(0)
print(f"\nwhy is applicant 0 scored {report.bias.values[0]:.4f}?")
print("contributor  share   credibility  proximity")
for e in explanations:
    print(f"{e.index:>11}  {e.contribution:.4f}  {e.credibility:>11.4f}  {e.similarity:>9.4f}")
print("\nthe share column sums to the bias score: "
      f"{sum(e.contribution for e in explanations):.4f}")
