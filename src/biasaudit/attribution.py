"""Per-sample credibility and bias estimation with contributor-level explanations.

Credibility of sample i is the proximity-weighted fraction of same-group
samples (self included) that share i's label:

    c_i = sum_j [s_j = s_i][y_j = y_i] Q[i, j] / sum_j [s_j = s_i] Q[i, j].

Bias of sample i is the credibility- and proximity-weighted fraction of
other-group samples carrying the opposite label:

    b_i = sum_j [s_j != s_i][y_j != y_i] c_j Q[i, j]
        / sum_j [s_j != s_i] c_j Q[i, j].

Both are the closed-form minimizers of the corresponding weighted local
regressions on label indicators, and both are one ratio: row i's mass on
one (group, label) cell over its mass on both cells of that group, read
from Q @ V (`Proximity.apply`; a row factor of Q cancels), where V holds
the four cell indicator columns. Credibility takes i's own cell with unit
weights, bias the opposite group and label with credibility weights. A
zero denominator means there is no evidence to estimate from; the entry is
flagged undefined rather than raised.
Each defined bias value decomposes exactly into per-contributor shares.

All explanations come from one kernel over the row blocks that
`Proximity.other_group_rows` yields for any storage of Q. Each row is
summed in column order, so a share does not depend on how Q is stored or
blocked; each block is cut to its rows' k best before the next is read,
and one lexsort over (row, share descending, index ascending) orders the
result. The report keeps it as columns sorted by row;
`BiasReport.explanations(i)` reads one slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .comparability import ComparabilityConfig, build_comparability_graph
from .data import Dataset
from .similarity import Proximity, adjacency_similarity, rwr_proximity, symmetric_normalize

BIAS_THRESHOLD = 0.5


class UndefinedBiasError(ValueError):
    """Raised when an explanation is requested for a sample with no other-group evidence."""


@dataclass(frozen=True)
class Estimate:
    """Per-sample credibility or bias in [0, 1]; NaN where undefined."""

    values: np.ndarray
    defined: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        defined = np.asarray(self.defined, dtype=bool)
        for arr in (values, defined):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "defined", defined)


class Explanation(NamedTuple):
    index: int
    contribution: float
    credibility: float
    similarity: float


def _as_explanations(columns, lo=0, hi=None) -> tuple:
    """Entries lo:hi of the explanation columns as Explanation tuples."""
    return tuple(Explanation(*e) for e in zip(*(c[lo:hi].tolist() for c in columns[1:])))


@dataclass(frozen=True, eq=False)
class BiasReport:
    """Full attribution result as columns: each sample's group and label,
    the two estimates, the explanation columns (row, index, contribution,
    credibility, similarity) sorted by row, and the similarity they were
    computed from."""

    groups: np.ndarray
    labels: np.ndarray
    credibility: Estimate
    bias: Estimate
    explained: tuple
    similarity: Proximity = field(repr=False)

    def explanations(self, i: int) -> tuple:
        """Sample i's top-k explanations; empty when its bias is undefined.
        An index outside the report is an IndexError."""
        if not 0 <= i < len(self.groups):
            raise IndexError(f"sample index {i} out of range for {len(self.groups)} samples")
        lo, hi = np.searchsorted(self.explained[0], [i, i + 1])
        return _as_explanations(self.explained, lo, hi)

    def to_text(self) -> str:
        row, index, contribution, credibility, similarity = self.explained
        entries = [
            f"{j}:{s:.6f}:{cj:.6f}:{x:.6f}"
            for j, s, cj, x in zip(index.tolist(), contribution.tolist(),
                                   credibility.tolist(), similarity.tolist())
        ]
        bounds = np.searchsorted(row, np.arange(len(self.groups) + 1)).tolist()
        lines = ["# index\ts\ty\tcredibility\tbias\tdefined\texplanations(j:contr:cred:sim)"]
        for i, (g, y, c, b, ok) in enumerate(zip(
                self.groups.tolist(), self.labels.tolist(), self.credibility.values.tolist(),
                self.bias.values.tolist(), self.bias.defined.tolist())):
            expl = ";".join(entries[bounds[i]:bounds[i + 1]])
            lines.append(f"{i}\t{g}\t{y}\t{c:.6f}\t{b:.6f}\t{int(ok)}\t{expl}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _check_rows(d: Dataset, *parts) -> None:
    """Raise unless every Estimate or Proximity in `parts` is over d's rows."""
    for part in parts:
        n = part.n if isinstance(part, Proximity) else len(part.values)
        if n != d.n:
            raise ValueError(f"{type(part).__name__} over {n} rows does not match "
                             f"the dataset's {d.n} rows")


def _cell_ratio(d: Dataset, q: Proximity, weight, flip: int) -> Estimate:
    """Sample i's proximity mass on the cell (g, y) = (s_i ^ flip, y_i ^ flip)
    over its mass on both cells of group g, each j counted with `weight` (a
    scalar or one per sample): ratios within rows of Q @ V, so a row factor
    of Q cancels. NaN and undefined where the group's mass is zero."""
    _check_rows(d, q)
    v = np.zeros((d.n, 4))
    v[np.arange(d.n), 2 * d.groups + d.labels] = weight
    mass = q.apply(v)
    rows, cell = np.arange(d.n), 2 * (d.groups ^ flip)
    den = mass[rows, cell] + mass[rows, cell + 1]
    num = mass[rows, cell + (d.labels ^ flip)]
    defined = den > 0.0
    values = np.full(d.n, np.nan)
    values[defined] = num[defined] / den[defined]
    return Estimate(values=values, defined=defined)


def estimate_credibility(d: Dataset, q: Proximity) -> Estimate:
    """Closed-form credibility over same-group proximity mass, self term included."""
    return _cell_ratio(d, q, 1.0, flip=0)


def estimate_bias(d: Dataset, q: Proximity, c: Estimate) -> Estimate:
    """Closed-form bias over credibility-weighted other-group proximity mass.

    Undefined credibility entries contribute zero weight; a sample with
    no credible other-group proximity mass is flagged undefined.
    """
    _check_rows(d, c)
    return _cell_ratio(d, q, np.where(c.defined, c.values, 0.0), flip=1)


def _k_best_mask(key, k):
    """Mask of each row's k smallest keys; ties go to the leftmost entries."""
    if k == 0 or k >= key.shape[1]:
        return np.full(key.shape, k > 0)
    kth = np.partition(key, k - 1, axis=1)[:, k - 1, None]
    below = key < kth
    tie = key == kth
    return below | (tie & (np.cumsum(tie, axis=1) <= k - below.sum(axis=1, keepdims=True)))


def _explanations(d: Dataset, q: Proximity, c: Estimate, rows, k: int, block: bool = False):
    """The batched kernel. Returns the rows of `rows` with credible
    other-group proximity mass, ascending, and the columns (row, index,
    contribution, credibility, similarity) of their top-k explanations,
    sorted by row. `block` reads a walk's entries from one solve of its
    cross-group block, for callers that explain many rows."""
    if k < 0:
        raise ValueError("top_k must be non-negative")
    _check_rows(d, q, c)
    cred = np.where(c.defined, c.values, 0.0)
    parts = [(np.empty(0, dtype=int),) * 3 + (np.empty(0),) * 2]
    for r, col, sim in q.other_group_rows(d.groups == 0, rows, whole=block):
        w = sim * cred[col]
        den = np.cumsum(w, axis=1)[:, -1:]  # in column order: the same bits for any storage
        share = np.divide(np.where(d.labels[col] != d.labels[r, None], w, 0.0), den,
                          out=np.zeros(w.shape), where=den > 0.0)
        contributes = w > 0.0
        ri, ci = np.nonzero(_k_best_mask(np.where(contributes, -share, np.inf), k)
                            & contributes)
        parts.append((r[den[:, 0] > 0.0], r[ri], np.broadcast_to(col, w.shape)[ri, ci],
                      share[ri, ci], sim[ri, ci]))
    defined, row, col, share, sim = (np.concatenate(f) for f in zip(*parts))
    order = np.lexsort((col, -share, row))
    row, col = row[order], col[order]
    return np.sort(defined), (row, col, share[order], cred[col], sim[order])


def bias_contributions(
    d: Dataset, q: Proximity, c: Estimate, i: int, k: int
) -> tuple:
    """Top-k contributors to sample i's bias, sorted by share descending.

    A contributor is any other-group sample with positive weight
    c_j * Q[i, j]; over the full contributor list the shares sum to b_i
    exactly. Ties are broken by ascending sample index, and k beyond the
    contributor count returns the full list; a negative k is a ValueError.
    This is the one-row call of the kernel that `attribute` runs over all
    samples at once.
    """
    defined, columns = _explanations(d, q, c, [i], k)
    if not len(defined):
        raise UndefinedBiasError("no comparable other-group evidence")
    return _as_explanations(columns)


def attribute(
    d: Dataset,
    cfg: ComparabilityConfig = ComparabilityConfig(),
    damping: float = 0.1,
    top_k: int = 5,
    similarity: str = "rwr",
) -> BiasReport:
    """Run the full attribution pipeline on a normalized dataset.

    Stages: comparability graph -> symmetric normalization -> proximity
    ("rwr" walk or "adjacency" bypass) -> credibility -> bias -> top-`top_k`
    explanations of every defined sample from one call of the batched
    kernel (`top_k` = 0, or no defined sample, skips them). A negative
    `top_k`, a damping outside [0, 1) under either similarity, or an
    unknown similarity is a ValueError raised before the graph is built.
    Under the walk it reads the cross-group block Q[G0, G1], solved once
    after the estimates, so they do not depend on `top_k`. The report keeps Q, the operator, for
    later stages. Deterministic throughout.

    Explanation shares agree with those of a dense solve of Q within 1e-9;
    entries whose shares lie closer than that may come in either order, as
    any change of summation order can swap them.
    """
    if top_k < 0:
        raise ValueError("top_k must be non-negative")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    if similarity not in ("rwr", "adjacency"):
        raise ValueError(f"unknown similarity {similarity!r}")
    graph = build_comparability_graph(d, cfg)
    if similarity == "rwr":
        q = rwr_proximity(symmetric_normalize(graph), damping=damping)
    else:
        q = adjacency_similarity(graph)
    cred = estimate_credibility(d, q)
    bias = estimate_bias(d, q, cred)
    explained = (np.empty(0, dtype=int),) * 2 + (np.empty(0),) * 3
    if top_k > 0 and bias.defined.any():
        _, explained = _explanations(d, q, cred, np.flatnonzero(bias.defined), top_k,
                                     block=True)
    return BiasReport(groups=d.groups, labels=d.labels, credibility=cred, bias=bias,
                      explained=explained, similarity=q)
