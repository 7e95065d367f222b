"""Pairwise comparability predicate and the sample comparability graph.

Two samples are comparable when every numerical feature differs by at
most ``t_r`` (inclusive, in normalized units) and at most ``t_d``
categorical features differ. The graph over all comparable pairs is
symmetric, boolean, and stored sparse with self-loops removed. It is
built in one forward sweep over the rows sorted on the first numerical
feature, which tests each pair once, in blocks of at most
`_BLOCK_ENTRIES` tested pairs. The pairs go straight into the CSR as
int32 ids, so the build's peak memory follows the edges it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import Dataset


@dataclass(frozen=True)
class ComparabilityConfig:
    """Disparity thresholds: t_r for numericals, t_d for categoricals."""

    t_r: float = 0.1
    t_d: int = 2

    def __post_init__(self):
        if not self.t_r > 0:
            raise ValueError("t_r must be positive")
        if self.t_d < 0:
            raise ValueError("t_d must be non-negative")


@dataclass(frozen=True)
class ComparabilityGraph:
    """Symmetric boolean adjacency over samples, no self-loops."""

    n: int
    adjacency: sparse.csr_matrix
    degree: np.ndarray

    def __post_init__(self):
        deg = np.asarray(self.degree, dtype=int)
        deg.setflags(write=False)
        object.__setattr__(self, "degree", deg)

    @property
    def edge_count(self):
        return int(self.adjacency.nnz // 2)


def is_comparable(num_a, cat_a, num_b, cat_b, cfg: ComparabilityConfig) -> bool:
    """Evaluate the comparability predicate on one sample pair.

    Both samples must share a schema: same numerical and categorical
    widths. Comparisons are inclusive on both thresholds.
    """
    num_a = np.asarray(num_a, dtype=float).ravel()
    num_b = np.asarray(num_b, dtype=float).ravel()
    cat_a = np.asarray(cat_a, dtype=int).ravel()
    cat_b = np.asarray(cat_b, dtype=int).ravel()
    if num_a.shape != num_b.shape or cat_a.shape != cat_b.shape:
        raise ValueError("feature vectors do not share a schema")
    if num_a.size and (np.abs(num_a - num_b) > cfg.t_r).any():
        return False
    return int((cat_a != cat_b).sum()) <= cfg.t_d


_BLOCK_ENTRIES = 2**17  # entries per block on the sparse path: pairs tested, rows of Q read


def _check_normalized(numericals):
    if numericals.size and (numericals.min() < -1e-12 or numericals.max() > 1 + 1e-12):
        raise ValueError("numerical features must be normalized to [0, 1] first")


def _window_ends(key, t_r):
    """For each position r of the sorted `key`, the first later position j with
    key[j] - key[r] > t_r: a binary search for all rows at once, by the same
    subtraction as the predicate. Rounding is monotone, so the ends do not
    decrease and no row past r's end is within t_r of r."""
    n = len(key)
    lo, hi = np.arange(1, n + 1), np.full(n, n)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        near = open_ & (key[np.minimum(mid, n - 1)] - key <= t_r)
        lo = np.where(near, mid + 1, lo)
        hi = np.where(open_ & ~near, mid, hi)
    return lo


def build_comparability_graph(d: Dataset, cfg: ComparabilityConfig) -> ComparabilityGraph:
    """Evaluate the predicate over all pairs and assemble the graph.

    Rows are sorted on the first numerical feature (kept in input order
    without numericals) and swept forward in blocks: each block is compared
    with itself and the rows after it, so every pair is tested once, in the
    block of its earlier row. With numerical features a block's window ends
    where the gap on the sort key, computed by the same subtraction as the
    predicate, exceeds t_r from its last row; the exact predicate is applied
    inside the window. Without numerical features the window runs to the last
    row. A block takes as many rows as keep rows x window within
    `_BLOCK_ENTRIES`, and at least one, so the sweep's temporaries are
    bounded whatever the data.

    Pairs are kept as int32 ids (int64 from n = 2**31), each list dropped
    once concatenated, and assembled into H, one entry per pair; A = H + H^T
    is the canonical CSR (sorted int32 indices, bool data). The assembly
    peaks at about twice the final CSR's bytes.
    """
    _check_normalized(d.numericals)
    n = d.n
    n_r, n_d = d.n_numerical, d.n_categorical
    idx = np.int32 if n < 2**31 else np.int64

    order = np.argsort(d.numericals[:, 0], kind="stable") if n_r else np.arange(n)
    order = order.astype(idx)
    num = d.numericals[order]
    cat = d.categoricals[order]
    ends = _window_ends(num[:, 0], cfg.t_r) if n_r else np.full(n, n)
    most_rows = math.isqrt(_BLOCK_ENTRIES)  # a window holds its block's rows

    pairs_i, pairs_j = [], []
    start = 0
    while start < n:
        rows = np.arange(1, min(most_rows, n - start) + 1)
        entries = rows * (ends[start:start + len(rows)] - start)
        stop = start + max(1, int(np.searchsorted(entries, _BLOCK_ENTRIES, side="right")))
        hi = int(ends[stop - 1])
        ok = np.arange(start, stop)[:, None] < np.arange(start, hi)
        for f in range(n_r):
            ok &= np.abs(num[start:stop, f][:, None] - num[None, start:hi, f]) <= cfg.t_r
        if n_d:
            differing = np.zeros((stop - start, hi - start), dtype=np.int32)
            for f in range(n_d):
                differing += cat[start:stop, f][:, None] != cat[None, start:hi, f]
            ok &= differing <= cfg.t_d
        bi, bj = np.nonzero(ok)
        pairs_i.append(order[bi + start])
        pairs_j.append(order[bj + start])
        start = stop

    i = np.concatenate(pairs_i) if pairs_i else np.zeros(0, dtype=idx)
    del pairs_i
    j = np.concatenate(pairs_j) if pairs_j else np.zeros(0, dtype=idx)
    del pairs_j
    half = sparse.csr_matrix((np.ones(len(i), dtype=bool), (i, j)), shape=(n, n))
    del i, j
    adjacency = half + half.T.tocsr()
    return ComparabilityGraph(n=n, adjacency=adjacency, degree=np.diff(adjacency.indptr))
