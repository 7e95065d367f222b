"""Pairwise comparability predicate and the sample comparability graph.

Two samples are comparable when every numerical feature differs by at
most ``t_r`` (inclusive, in normalized units) and at most ``t_d``
categorical features differ. The graph over all comparable pairs is
symmetric, boolean, and stored sparse with self-loops removed. It is
built in one forward sweep over the rows sorted on the first numerical
feature, which tests each pair once.
"""

from __future__ import annotations

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


_BLOCK_ROWS = 512


def _check_normalized(numericals):
    if numericals.size and (numericals.min() < -1e-12 or numericals.max() > 1 + 1e-12):
        raise ValueError("numerical features must be normalized to [0, 1] first")


def build_comparability_graph(d: Dataset, cfg: ComparabilityConfig) -> ComparabilityGraph:
    """Evaluate the predicate over all pairs and assemble the graph.

    Rows are sorted on the first numerical feature (kept in input order
    without numericals) and processed in blocks of `_BLOCK_ROWS`, so the
    n x n comparison never fully materializes. Each block is compared only
    with itself and the rows after it, so every pair is tested once, in
    the block of its earlier row. With numerical features the forward
    window ends where the gap on the sort key, computed by the same
    subtraction as the predicate, exceeds t_r; the exact predicate is
    applied inside the window. Without numerical features the window runs
    to the last row.
    """
    _check_normalized(d.numericals)
    n = d.n
    n_r, n_d = d.n_numerical, d.n_categorical

    order = np.argsort(d.numericals[:, 0], kind="stable") if n_r else np.arange(n)
    num = d.numericals[order]
    cat = d.categoricals[order]

    pairs_i, pairs_j = [], []
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        hi = n
        if n_r:
            # rounding is monotone, so no later row outside this window is
            # within t_r of any row of the block
            gap = num[stop:, 0] - num[stop - 1, 0]
            hi = stop + int(np.searchsorted(gap, cfg.t_r, side="right"))
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

    i = np.concatenate(pairs_i) if pairs_i else np.zeros(0, dtype=int)
    j = np.concatenate(pairs_j) if pairs_j else np.zeros(0, dtype=int)
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    adjacency = sparse.csr_matrix(
        (np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n, n)
    )
    degree = np.asarray(adjacency.sum(axis=1)).ravel().astype(int)
    return ComparabilityGraph(n=n, adjacency=adjacency, degree=degree)
