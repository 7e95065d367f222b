"""Reference results and the correctness gate for every benchmark operation.

The reference never calls `biasaudit.comparability` or
`biasaudit.similarity`. It reads the generated files itself, scales
numericals with the same min-max arithmetic, takes the comparability
graph from a brute-force inclusive `<=` predicate over all pairs, takes
the proximity Q from a dense `np.linalg.solve` of (I - pW) Q = (1 - p) I
(or the row-normalised adjacency when the walk is bypassed), and applies
the paper's credibility and bias formulas. It is computed once per seed,
outside timing.

Each `check_*` function returns a list of problems; an empty list means
the operation's outputs passed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

BIAS_TOL = 1e-6  # the report prints 6 decimals
DETECTION_MIN = 0.95
RANK_TOL = 1e-8  # proximity ties within solver precision count as ties
SEGMENT_TOL = 2e-6  # plan.txt prints numericals and lambda with 6 decimals
METRIC_KEYS = ("acc", "roc_auc", "ap", "dp", "eo", "pc", "ge", "n_privileged",
               "n_protected", "pos_rate_privileged", "pos_rate_protected")


@dataclass
class Table:
    numericals: np.ndarray  # raw values
    categoricals: np.ndarray  # integer codes; only equality matters
    labels: np.ndarray
    groups: np.ndarray
    truth: np.ndarray

    @property
    def n(self):
        return len(self.labels)

    def rows(self, idx):
        return Table(self.numericals[idx], self.categoricals[idx], self.labels[idx],
                     self.groups[idx], self.truth[idx])


def read_table(input_dir: Path) -> Table:
    """Parse data.csv under schema.txt, and truth.txt, without the library."""
    schema = {"numerical": "", "categorical": "", "favorable": None, "privileged": None}
    for line in (input_dir / "schema.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition("=")
            schema[key.strip()] = value.strip()
    num_names = [v.strip() for v in schema["numerical"].split(",") if v.strip()]
    cat_names = [v.strip() for v in schema["categorical"].split(",") if v.strip()]
    with open(input_dir / "data.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader if r]
    col = {name: k for k, name in enumerate(header)}

    def binary(name, one):
        values = [r[col[name]] for r in rows]
        if one is None:
            return np.array([int(v) for v in values])
        return np.array([int(v == one) for v in values])

    numericals = np.array([[float(r[col[c]]) for c in num_names] for r in rows])
    numericals = numericals.reshape(len(rows), len(num_names))
    categoricals = np.zeros((len(rows), len(cat_names)), dtype=int)
    for j, name in enumerate(cat_names):
        _, categoricals[:, j] = np.unique([r[col[name]] for r in rows], return_inverse=True)
    truth = np.array([line.strip() == "1" for line in
                      (input_dir / "truth.txt").read_text(encoding="utf-8").split()])
    return Table(numericals, categoricals, binary(schema["label"], schema["favorable"]),
                 binary(schema["group"], schema["privileged"]), truth)


def scale(raw, fit):
    """Min-max scale `raw` by the range of `fit`; constant columns map to 0."""
    mins, maxs = fit.min(axis=0), fit.max(axis=0)
    span = maxs - mins
    scaled = (raw - mins) / np.where(span > 0, span, 1.0)
    return np.clip(np.where(span > 0, scaled, 0.0), 0.0, 1.0)


def comparable_pairs(num, cat, t_r, t_d, block=256):
    """All pairs i < j with every |num_i - num_j| <= t_r and <= t_d differing categoricals."""
    n = len(num)
    pi, pj = [], []
    for start in range(0, n, block):
        stop = min(n, start + block)
        ok = np.ones((stop - start, n), dtype=bool)
        for f in range(num.shape[1]):
            ok &= np.abs(num[start:stop, f][:, None] - num[None, :, f]) <= t_r
        if cat.shape[1]:
            ok &= (cat[start:stop, None, :] != cat[None, :, :]).sum(axis=2) <= t_d
        i, j = np.nonzero(ok)
        i += start
        keep = i < j
        pi.append(i[keep])
        pj.append(j[keep])
    return np.concatenate(pi), np.concatenate(pj)


def adjacency_matrix(n, pi, pj):
    rows, cols = np.concatenate([pi, pj]), np.concatenate([pj, pi])
    return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def dense_rwr(adj, damping):
    """Q = (1 - p)(I - pW)^-1 by a dense solve, W = D^-1/2 A D^-1/2.

    Q is zero between connected components; the solve leaves round-off
    there, which is cleared so that `defined` follows the graph.
    """
    n = adj.shape[0]
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1)), 0.0)
    w = adj.toarray() * inv_sqrt[:, None] * inv_sqrt[None, :]
    q = np.linalg.solve(np.eye(n) - damping * w, (1.0 - damping) * np.eye(n))
    _, comp = connected_components(adj, directed=False)
    q[comp[:, None] != comp[None, :]] = 0.0
    return np.clip(q, 0.0, 1.0)


def row_normalized(adj):
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return sparse.diags(np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0)) @ adj


def credibility_bias(q, groups, labels):
    """The paper's closed forms, through Q applied to (group, label) indicators.

    c_i = sum_j [s_j=s_i][y_j=y_i] Q_ij / sum_j [s_j=s_i] Q_ij
    b_i = sum_j [s_j!=s_i][y_j!=y_i] c_j Q_ij / sum_j [s_j!=s_i] c_j Q_ij
    Zero denominators are undefined (NaN); undefined c_j weighs zero.
    """
    n = len(labels)
    cell = 2 * groups + labels
    v = np.zeros((n, 4))
    v[np.arange(n), cell] = 1.0
    rows = np.arange(n)

    def ratio(m, same_group, same_label):
        g = groups if same_group else 1 - groups
        y = labels if same_label else 1 - labels
        den = m[rows, 2 * g] + m[rows, 2 * g + 1]
        num = m[rows, 2 * g + y]
        defined = den > 0.0
        out = np.full(n, np.nan)
        out[defined] = num[defined] / den[defined]
        return out, defined

    cred, cred_defined = ratio(np.asarray(q @ v), True, True)
    weighted = v * np.where(cred_defined, cred, 0.0)[:, None]
    bias, bias_defined = ratio(np.asarray(q @ weighted), False, False)
    return cred, bias, bias_defined


@dataclass
class AuditReference:
    table: Table
    edges: int
    credibility: np.ndarray
    bias: np.ndarray
    defined: np.ndarray


@dataclass
class MitigateReference:
    train: Table
    train_scaled: np.ndarray
    q: np.ndarray
    edges: int
    target_label: int
    target_group: int


def audit_reference(input_dir: Path, t_r, t_d, damping, similarity) -> AuditReference:
    table = read_table(input_dir)
    num = scale(table.numericals, table.numericals)
    pi, pj = comparable_pairs(num, table.categoricals, t_r, t_d)
    adj = adjacency_matrix(table.n, pi, pj)
    q = dense_rwr(adj, damping) if similarity == "rwr" else row_normalized(adj)
    cred, bias, defined = credibility_bias(q, table.groups, table.labels)
    return AuditReference(table, len(pi), cred, bias, defined)


def mitigate_reference(input_dir: Path, t_r, t_d, damping, split_seed) -> MitigateReference:
    # Which rows form the training split is the data layer's decision; the
    # reference takes it from the library and checks everything after it.
    from biasaudit.data import load_dataset, load_schema, stratified_split

    d = load_dataset(input_dir / "data.csv", load_schema(input_dir / "schema.txt"))
    train_idx = stratified_split(d, seed=split_seed)[0][0]
    train = read_table(input_dir).rows(train_idx)
    num = scale(train.numericals, train.numericals)
    pi, pj = comparable_pairs(num, train.categoricals, t_r, t_d)
    q = dense_rwr(adjacency_matrix(train.n, pi, pj), damping)
    n_pos = int(train.labels.sum())
    target_label = 1 if n_pos < train.n - n_pos else 0  # the minority label
    return MitigateReference(train, num, q, len(pi), target_label,
                             0 if target_label == 1 else 1)


def _floats(tokens):
    return np.array([float(t) for t in tokens])


def check_report(path: Path, ref: AuditReference, detection: bool) -> list:
    """bias_report.txt against the reference: every row, flag and value."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"cannot read report: {exc}"]
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != ref.table.n or any(len(r) != 7 for r in rows):
        return [f"report has {len(rows)} rows of uneven width, expected {ref.table.n} rows of 7"]
    cols = list(zip(*rows))
    problems = []
    if [int(v) for v in cols[0]] != list(range(ref.table.n)):
        problems.append("row indices are not 0..n-1")
    if not (np.array_equal(np.array(cols[1], dtype=int), ref.table.groups)
            and np.array_equal(np.array(cols[2], dtype=int), ref.table.labels)):
        problems.append("group or label columns differ from the input")
    defined = np.array(cols[5]) == "1"
    if not np.array_equal(defined, ref.defined):
        problems.append(f"defined flags differ on {int((defined != ref.defined).sum())} rows")
        return problems
    bias = _floats(cols[4])
    if not np.isnan(bias[~defined]).all():
        problems.append("an undefined row carries a bias value")
    diff = np.abs(bias[defined] - ref.bias[defined])
    if diff.size and not diff.max() <= BIAS_TOL:
        problems.append(f"bias differs from the reference by {diff.max():.3e} > {BIAS_TOL:g}")
    cred = _floats(cols[3])
    cred_defined = ~np.isnan(ref.credibility)
    if not np.array_equal(~np.isnan(cred), cred_defined):
        problems.append("credibility is defined on different rows")
    elif cred_defined.any() and not (np.abs(cred - ref.credibility)[cred_defined].max()
                                     <= BIAS_TOL):
        problems.append("credibility differs from the reference")
    if detection:
        flagged = defined & (np.where(defined, bias, 0.0) > 0.5)
        target = ref.table.groups == 0
        acc = float((flagged[target] == ref.table.truth[target]).mean())
        if not acc >= DETECTION_MIN:
            problems.append(f"detection accuracy {acc:.4f} < {DETECTION_MIN}")
    return problems


def top_neighbors_floor(ref: MitigateReference, seed: int, k: int) -> float:
    """Smallest oracle similarity among the seed's k most similar same-cell samples."""
    cell = (ref.train.labels == ref.target_label) & (ref.train.groups == ref.target_group)
    sims = ref.q[seed]
    mask = cell & (sims > 0.0)
    mask[seed] = False
    ranked = np.sort(sims[mask])[::-1]
    return float(ranked[min(k, len(ranked)) - 1]) if len(ranked) else math.inf


def check_mitigate(out_dir: Path, ref: MitigateReference, budget: int, neighbors: int) -> list:
    """plan.txt, edited_dataset.csv and the three metric files against the reference."""
    try:
        plan_lines = (out_dir / "plan.txt").read_text(encoding="utf-8").splitlines()
        edited_rows = (out_dir / "edited_dataset.csv").read_text(encoding="utf-8").count("\n") - 1
    except OSError as exc:
        return [f"cannot read outputs: {exc}"]
    problems = []
    rows = [line.split(",") for line in plan_lines if not line.startswith("#")]
    if len(rows) != budget:
        problems.append(f"plan has {len(rows)} rows, budget is {budget}")
    n_num = ref.train_scaled.shape[1]
    train = ref.train
    for r, row in enumerate(rows):
        if len(row) != n_num + 5:
            problems.append(f"plan row {r} has {len(row)} fields")
            break
        group, label, seed, target = (int(v) for v in row[n_num:n_num + 4])
        lam = float(row[-1])
        if not (0 <= seed < train.n and 0 <= target < train.n):
            problems.append(f"plan row {r}: index out of range")
            break
        if not (train.labels[seed] == ref.target_label == label
                and train.groups[seed] == ref.target_group == group):
            problems.append(f"plan row {r}: seed {seed} is not in the augmentation cell")
            break
        in_cell = (train.labels[target] == label and train.groups[target] == group
                   and target != seed)
        if not (in_cell and ref.q[seed, target] > 0.0 and ref.q[seed, target]
                >= top_neighbors_floor(ref, seed, neighbors) - RANK_TOL):
            problems.append(f"plan row {r}: target {target} is not among seed {seed}'s "
                            f"{neighbors} most similar same-cell samples")
            break
        expected = lam * ref.train_scaled[seed] + (1.0 - lam) * ref.train_scaled[target]
        if not np.abs(_floats(row[:n_num]) - expected).max() <= SEGMENT_TOL:
            problems.append(f"plan row {r}: numericals are off the seed-target segment")
            break
    if edited_rows != train.n + budget:
        problems.append(f"edited_dataset.csv has {edited_rows} rows, expected {train.n + budget}")
    for name in ("before", "after", "control"):
        try:
            fields = dict(f.split("=", 1) for f in
                          (out_dir / f"metrics_{name}.txt").read_text(encoding="utf-8").split())
            if tuple(fields) != METRIC_KEYS:
                raise ValueError("unexpected keys")
            for value in fields.values():
                float(value)
        except (OSError, ValueError) as exc:
            problems.append(f"metrics_{name}.txt does not parse: {exc}")
    return problems
