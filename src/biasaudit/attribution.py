"""Per-sample credibility and bias estimation with contributor-level explanations.

Credibility of sample i is the proximity-weighted fraction of same-group
samples (self included) that share i's label:

    c_i = sum_j [s_j = s_i][y_j = y_i] Q[i, j] / sum_j [s_j = s_i] Q[i, j].

Bias of sample i is the credibility- and proximity-weighted fraction of
other-group samples carrying the opposite label:

    b_i = sum_j [s_j != s_i][y_j != y_i] c_j Q[i, j]
        / sum_j [s_j != s_i] c_j Q[i, j].

Both are the closed-form minimizers of the corresponding weighted local
regressions on label indicators. Every sum runs over (group, label)
cells, so both estimates are ratios within rows of Q @ V (`Proximity.apply`;
a row factor of Q cancels), where V holds the four cell indicator columns
(scaled by credibility for the bias). A zero denominator means there is no
evidence to estimate from; the entry is flagged undefined rather than raised.
Each defined bias value decomposes exactly into per-contributor shares.

All explanations come from one batched ranking kernel. Candidate
(row, contributor, share) triplets are read from the other-group entries
of Q: the stored entries of a sparse Q, read in row blocks of about
`_BLOCK_ENTRIES` entries, or blocks of dense rows; each block is shrunk to
its rows' k best before the next is read. For all rows of the walk those
entries form one block, Q[G0, G1] (Q is symmetric), solved once; one row
is solved by itself. One lexsort over (row, share descending, index
ascending) then keeps each row's first k, so the cost follows the entries
read rather than a Python loop over dense rows. The report keeps the
result as columns sorted by row; `BiasReport.explanations(i)` reads one
slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .comparability import _BLOCK_ENTRIES, ComparabilityConfig, build_comparability_graph
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
        """Sample i's top-k explanations; empty when its bias is undefined."""
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


def _cell_mass(d: Dataset, q: Proximity, weight) -> np.ndarray:
    """Q @ V (up to a row factor): column 2*g + y is sample i's mass on the
    cell (g, y), each j counted with `weight` (a scalar or one per sample)."""
    v = np.zeros((d.n, 4))
    v[np.arange(d.n), 2 * d.groups + d.labels] = weight
    return q.apply(v)


def estimate_credibility(d: Dataset, q: Proximity) -> Estimate:
    """Closed-form credibility over same-group proximity mass, self term included."""
    if q.n != d.n:
        raise ValueError("similarity matrix does not match dataset size")
    mass = _cell_mass(d, q, 1.0)
    rows, cell = np.arange(d.n), 2 * d.groups
    den = mass[rows, cell] + mass[rows, cell + 1]
    num = mass[rows, cell + d.labels]
    defined = den > 0.0
    values = np.full(d.n, np.nan)
    values[defined] = num[defined] / den[defined]
    return Estimate(values=values, defined=defined)


def estimate_bias(d: Dataset, q: Proximity, c: Estimate) -> Estimate:
    """Closed-form bias over credibility-weighted other-group proximity mass.

    Undefined credibility entries contribute zero weight; a sample with
    no credible other-group proximity mass is flagged undefined.
    """
    mass = _cell_mass(d, q, np.where(c.defined, c.values, 0.0))
    rows, cell = np.arange(d.n), 2 * (1 - d.groups)
    den = mass[rows, cell] + mass[rows, cell + 1]
    num = mass[rows, cell + 1 - d.labels]
    defined = den > 0.0
    values = np.full(d.n, np.nan)
    values[defined] = num[defined] / den[defined]
    return Estimate(values=values, defined=defined)


def _top_k(row, col, share, k):
    """Positions of each row's first k triplets, ordered by row, share
    descending, then column ascending."""
    order = np.lexsort((col, -share, row))
    row = row[order]
    pos = np.arange(len(row))
    first = np.maximum.accumulate(np.where(np.r_[True, row[1:] != row[:-1]], pos, 0))
    return order[pos - first < k]


def _k_best_mask(key, k):
    """Mask of each row's k smallest keys; ties go to the leftmost entries."""
    if k == 0 or k >= key.shape[1]:
        return np.full(key.shape, k > 0)
    kth = np.partition(key, k - 1, axis=1)[:, k - 1, None]
    below = key < kth
    tie = key == kth
    return below | (tie & (np.cumsum(tie, axis=1) <= k - below.sum(axis=1, keepdims=True)))


def _stored_candidates(d, q, cred, rows, k):
    """Candidates from the stored entries of a sparse Q: each row's k best
    contributors. Rows are read in blocks of about `_BLOCK_ENTRIES` stored
    entries, and each block is cut to its rows' top k before the next is
    read, so no temporary grows with the entries of all rows."""
    counts = np.diff(q.matrix.indptr)[rows]
    block_of = (np.cumsum(counts) - counts) // _BLOCK_ENTRIES  # by each row's first entry
    parts = []
    for r in np.split(rows, np.flatnonzero(np.diff(block_of)) + 1):
        block = q.csr_rows(r)
        at = np.repeat(np.arange(len(r)), np.diff(block.indptr))  # position within r
        col, sim = block.indices, block.data
        w = sim * cred[col]
        keep = (d.groups[col] != d.groups[r][at]) & (w > 0.0)
        at, col, sim, w = at[keep], col[keep], sim[keep], w[keep]
        den = np.bincount(at, weights=w, minlength=len(r))
        share = np.where(d.labels[col] != d.labels[r][at], w, 0.0) / den[at]
        top = _top_k(at, col, share, k)
        parts.append((r[den > 0.0], r[at[top]], col[top], share[top], sim[top]))
    return tuple(np.concatenate(f) for f in zip(*parts))


def _dense_candidates(d, q, cred, rows, k, block):
    """Candidates from dense rows cut to their other-group entries: each
    row's k best contributors. With `block`, a walk's entries come from its
    cross-group block Q[G0, G1], solved once, group-1 rows from its transpose;
    otherwise from the rows of Q. Rows are taken in blocks of about
    `_BLOCK_ENTRIES` other-group entries, small enough that the block
    temporaries do not raise peak memory."""
    cross = q.cross_block(d.groups == 0) if block and q.matrix is None else None
    parts = [(np.empty(0, dtype=int),) * 3 + (np.empty(0),) * 2]
    for g in (0, 1):
        same = d.groups == g
        other = np.flatnonzero(~same)
        at = np.cumsum(same) - 1  # position within group g
        mine = rows[same[rows]]
        step = max(1, _BLOCK_ENTRIES // max(len(other), 1))
        for start in range(0, len(mine), step):
            r = mine[start:start + step]
            if cross is None:
                sim = q.rows(r)[:, other]
            else:
                sim = cross[at[r]] if g == 0 else cross[:, at[r]].T
            # Contiguous rows, so each row sums below in one order: that order
            # sets the last bit of every share.
            sim = np.ascontiguousarray(sim)
            w = sim * cred[other]
            den = w.sum(axis=1)
            ok = np.flatnonzero(den > 0.0)
            r, den, sim, w = r[ok], den[ok, None], sim[ok], w[ok]
            share = np.where(d.labels[other] != d.labels[r, None], w, 0.0) / den
            contributes = w > 0.0
            pick = _k_best_mask(np.where(contributes, -share, np.inf), k) & contributes
            ri, ci = np.nonzero(pick)
            parts.append((r, r[ri], other[ci], share[ri, ci], sim[ri, ci]))
    return tuple(np.concatenate(f) for f in zip(*parts))


def _explanations(d: Dataset, q: Proximity, c: Estimate, rows, k: int, block: bool = False):
    """The batched kernel. Returns the rows of `rows` with credible
    other-group proximity mass, and the columns (row, index, contribution,
    credibility, similarity) of their top-k explanations, sorted by row.
    `block` reads a walk's entries from one solve of its cross-group block,
    for callers that explain many rows."""
    if k < 0:
        raise ValueError("top_k must be non-negative")
    cred = np.where(c.defined, c.values, 0.0)
    rows = np.asarray(rows, dtype=int)
    if sparse.issparse(q.matrix):
        defined, row, col, share, sim = _stored_candidates(d, q, cred, rows, k)
    else:
        defined, row, col, share, sim = _dense_candidates(d, q, cred, rows, k, block)
    keep = _top_k(row, col, share, k)
    return defined, (row[keep], col[keep], share[keep], cred[col[keep]], sim[keep])


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
    kernel (`top_k` = 0, or no defined sample, skips them; a negative
    `top_k` is a ValueError). Under the walk it reads the cross-group block
    Q[G0, G1], solved once after the estimates, so they do not depend on
    `top_k`. The report keeps Q, the operator, for later stages.
    Deterministic throughout.

    Explanation shares agree with those of a dense solve of Q within 1e-9;
    entries whose shares lie closer than that may come in either order, as
    any change of summation order can swap them.
    """
    if top_k < 0:
        raise ValueError("top_k must be non-negative")
    graph = build_comparability_graph(d, cfg)
    if similarity == "rwr":
        q = rwr_proximity(symmetric_normalize(graph), damping=damping)
    elif similarity == "adjacency":
        q = adjacency_similarity(graph)
    else:
        raise ValueError(f"unknown similarity {similarity!r}")
    cred = estimate_credibility(d, q)
    bias = estimate_bias(d, q, cred)
    explained = (np.empty(0, dtype=int),) * 2 + (np.empty(0),) * 3
    if top_k > 0 and bias.defined.any():
        _, explained = _explanations(d, q, cred, np.flatnonzero(bias.defined), top_k,
                                     block=True)
    return BiasReport(groups=d.groups, labels=d.labels, credibility=cred, bias=bias,
                      explained=explained, similarity=q)
