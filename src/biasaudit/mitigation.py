"""Bias-informed data editing: removal of high-bias samples and fair-sample mixup.

Removal deletes the top-budget samples by bias score from the
adaptively chosen (majority label, group) cell. Augmentation appends
synthetic samples built by neighborhood mixup between low-bias seeds of
the (minority label, group) cell and their most similar same-group
same-label neighbors, ranked by `Proximity.nearest`, which under the walk
stops as soon as the list is proven. Both directions counter class
imbalance at the same time as unfairness.

Plans are columns: the removed indices, or the synthetic rows as one
`Dataset` with the seed, target and lam arrays they were mixed from.
"""

from __future__ import annotations

import csv
import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .attribution import Estimate, _check_rows
from .data import Dataset, _sample_indices
from .similarity import Proximity


class ClassBalanceTieError(ValueError):
    """Label counts are exactly tied; choose the target class explicitly."""


@dataclass(frozen=True)
class RemovalPlan:
    indices: tuple
    budget: int

    def __post_init__(self):
        _sample_indices(self.indices, None, "removal index")  # apply_plan checks the upper bound
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("removal indices must be unique")


@dataclass(frozen=True, eq=False)
class AugmentationPlan:
    """The m synthetic rows as one `Dataset` in normalized units, plus
    each row's provenance: its seed, its mixup target and its weight lam.
    The budget it was drawn for is m, `len(seeds)`."""

    rows: Dataset
    seeds: np.ndarray
    targets: np.ndarray
    lams: np.ndarray
    n_neighbors: int

    # perfbench/traced.py counts the synthetic rows as `len(plan.samples)`.
    @property
    def samples(self):
        return self.seeds


def select_edit_subgroup(d: Dataset, strategy: str, tie_label: int | None = None) -> tuple:
    """Pick the (label, group) cell to edit from the class distribution.

    Removal targets the majority label; if that is the positive class
    the privileged group is edited, otherwise the protected group.
    Augmentation targets the minority label with the group choice
    reversed. An exact label tie raises unless `tie_label` names the
    class to treat as the target.
    """
    if strategy not in ("removal", "augmentation"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n_pos = int((d.labels == 1).sum())
    n_neg = d.n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both labels must be present")
    if n_pos == n_neg:
        if tie_label is None:
            raise ClassBalanceTieError(
                "label counts are tied; pass an explicit tie_label override"
            )
        label = int(tie_label)
    elif strategy == "removal":
        label = 1 if n_pos > n_neg else 0
    else:
        label = 1 if n_pos < n_neg else 0
    return label, (label if strategy == "removal" else 1 - label)


def plan_removal(d: Dataset, b: Estimate, k: int, tie_label: int | None = None) -> RemovalPlan:
    """Select the top-k candidates by bias score from the removal cell.

    Undefined bias ranks as zero; ties break by ascending index. A
    budget beyond the candidate count truncates with a warning.
    """
    if k < 0:
        raise ValueError("budget must be non-negative")
    _check_rows(d, b)
    label, group = select_edit_subgroup(d, "removal", tie_label)
    candidates = np.nonzero((d.labels == label) & (d.groups == group))[0]
    scores = b.filled[candidates]
    order = np.lexsort((candidates, -scores))
    if k > len(candidates):
        warnings.warn(
            f"budget {k} exceeds candidate count {len(candidates)}; plan truncated",
            stacklevel=2,
        )
    chosen = candidates[order][: min(k, len(candidates))]
    return RemovalPlan(indices=tuple(int(i) for i in chosen), budget=k)


def mix_rows(d: Dataset, seeds, targets, lams, take_seed) -> Dataset:
    """Blend seed/target row pairs: linear on numericals, a pick per categorical.

    Row r is lams[r] * seed + (1 - lams[r]) * target on the numericals
    and takes the seed's value of categorical f where take_seed[r, f]
    holds, the target's otherwise. Label and group come from the seed. A seed
    or target that `_sample_indices` refuses is an IndexError.
    """
    seeds = _sample_indices(seeds, d.n, "seed index")
    targets = _sample_indices(targets, d.n, "target index")
    lam = np.asarray(lams, dtype=float).reshape(-1, 1)
    numericals = lam * d.numericals[seeds] + (1.0 - lam) * d.numericals[targets]
    categoricals = np.where(take_seed, d.categoricals[seeds], d.categoricals[targets])
    return replace(d, numericals=numericals, categoricals=categoricals,
                   labels=d.labels[seeds], groups=d.groups[seeds])


def synthesize_fair_samples(
    d: Dataset,
    b: Estimate,
    q: Proximity,
    m: int,
    n_nb: int = 5,
    rng_seed: int = 0,
    tie_label: int | None = None,
) -> AugmentationPlan:
    """Draw m synthetic samples by neighborhood mixup, seeded for reproducibility.

    Seeds come from the augmentation cell with probability proportional
    to 1 - bias (undefined bias counts as zero bias, weight one). The
    mixup target is drawn uniformly from the seed's n_nb most similar
    same-group, same-label samples; numericals interpolate linearly with
    weight lam ~ U(0, 1), each categorical takes the seed's value with
    probability lam and the target's otherwise. Synthetics inherit the
    seed's label and group. The neighbours of each distinct seed drawn are
    ranked once, by `Proximity.nearest`.
    """
    if m < 0:
        raise ValueError("budget must be non-negative")
    if n_nb < 1:
        raise ValueError("neighborhood size must be at least 1")
    _check_rows(d, b, q)
    label, group = select_edit_subgroup(d, "augmentation", tie_label)
    same_cell = (d.labels == label) & (d.groups == group)
    pool = np.flatnonzero(same_cell)
    weights = 1.0 - b.filled[pool]

    @functools.cache
    def neighbor_pool(seed_idx):
        return q.nearest(seed_idx, same_cell, n_nb)

    if m:  # what a draw needs; m = 0 makes none
        if len(pool) == 0:
            raise ValueError("augmentation candidate pool is empty")
        if weights.sum() <= 0.0:
            raise ValueError("all candidate weights are zero")
        if not any(w > 0 and len(neighbor_pool(s)) for s, w in zip(pool.tolist(), weights)):
            raise ValueError("no candidate has a comparable same-group neighbor")

    rng = np.random.default_rng(rng_seed)
    seeds, targets, lams = [], [], []
    take_seed = np.zeros((m, d.n_categorical), dtype=bool)
    attempts = 0
    while len(seeds) < m:
        attempts += 1
        if attempts > max(1000, 100 * m):
            raise ValueError(f"seed resampling did not terminate: {len(seeds)} of {m} "
                             f"samples made in {attempts - 1} draws")
        seed_idx = int(rng.choice(pool, p=weights / weights.sum()))
        nbrs = neighbor_pool(seed_idx)
        if len(nbrs) == 0:
            warnings.warn(
                f"seed {seed_idx} has no comparable same-group neighbor; resampling",
                stacklevel=2,
            )
            continue
        targets.append(int(nbrs[rng.integers(len(nbrs))]))
        lams.append(float(rng.uniform()))
        take_seed[len(seeds)] = rng.random(d.n_categorical) < lams[-1]
        seeds.append(seed_idx)
    seeds, targets, lams = np.array(seeds, dtype=int), np.array(targets, dtype=int), np.array(lams)
    return AugmentationPlan(rows=mix_rows(d, seeds, targets, lams, take_seed), seeds=seeds,
                            targets=targets, lams=lams, n_neighbors=n_nb)


def apply_plan(d: Dataset, plan) -> Dataset:
    """Delete a removal's rows (order kept) or append an augmentation's; bad index: IndexError."""
    if isinstance(plan, RemovalPlan):
        return d.subset(np.delete(np.arange(d.n),
                                  _sample_indices(plan.indices, d.n, "removal index")))
    if isinstance(plan, AugmentationPlan):
        _sample_indices(np.concatenate([plan.seeds, plan.targets]), d.n, "provenance index")
        r = plan.rows
        return replace(d, numericals=np.vstack([d.numericals, r.numericals]),
                       categoricals=np.vstack([d.categoricals, r.categoricals]),
                       labels=np.concatenate([d.labels, r.labels]),
                       groups=np.concatenate([d.groups, r.groups]))
    raise TypeError(f"unknown plan type {type(plan).__name__}")


def write_plan(plan, path) -> None:
    """Serialize a plan: index list for removal, full rows plus provenance for augmentation.

    The synthetic rows carry their schema and category tokens, quoted as
    `save_dataset` quotes them.
    """
    if isinstance(plan, RemovalPlan):
        header = [[f"removal plan\tbudget={plan.budget}"]]
        table, fmt = np.asarray(plan.indices, dtype=int).reshape(-1, 1), ["{:d}"]
    elif isinstance(plan, AugmentationPlan):
        r = plan.rows
        header = [[f"augmentation plan\tbudget={len(plan.seeds)}\tneighbors={plan.n_neighbors}"],
                  [*r.schema.numerical_names, *r.schema.categorical_names,
                   r.schema.group_name, r.schema.label_name, "seed", "target", "lambda"]]
        table = np.hstack([
            r.numericals.astype(object),
            r.decode_categoricals(),
            np.column_stack([r.groups, r.labels, plan.seeds, plan.targets]).astype(object),
            plan.lams.reshape(-1, 1).astype(object),
        ])
        fmt = ["{:.6f}"] * r.n_numerical + ["{}"] * (r.n_categorical + 4) + ["{:.6f}"]
    else:
        raise TypeError(f"unknown plan type {type(plan).__name__}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for line in header:  # comment lines
            fh.write("# ")
            writer.writerow(line)
        writer.writerows([f.format(v) for f, v in zip(fmt, row)] for row in table.tolist())
