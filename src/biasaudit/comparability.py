"""Pairwise comparability predicate and the sample comparability graph.

Two samples are comparable when every numerical feature differs by at
most ``t_r`` (inclusive, in normalized units) and at most ``t_d``
categorical features differ. The graph over all comparable pairs is
symmetric and boolean, its one field a CSR without self-loops. It is
built in one forward sweep over the rows sorted on the first numerical
feature, which tests each pair once, in blocks of at most
`_BLOCK_ENTRIES` tested pairs. A row's window on the sort key is a padded
bound, a superset of its comparable rows; the exact predicate decides
which pairs are edges. The pairs go straight into the CSR as int32 ids,
so the build's peak memory follows the edges it finds.

`scipy.sparse` is imported where a CSR is first checked or assembled, not at
module level: scipy's import takes about as long as the rest of the package's,
and a command that exits before building a graph (help, a usage or input
error) then loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, eq=False)
class ComparabilityGraph:
    """A canonical symmetric boolean CSR, no self-loops; `n` and `degree` are read from it.
    Anything else is a ValueError, save an asymmetric CSR: symmetry is the builder's."""

    adjacency: sparse.csr_matrix

    def __post_init__(self):
        from scipy import sparse

        a = self.adjacency
        if not (sparse.issparse(a) and a.format == "csr" and a.shape[0] == a.shape[1]):
            raise ValueError("the adjacency must be a square CSR")
        if a.dtype != bool or not a.data.all():
            raise ValueError("the adjacency must be boolean and store only True")
        if not a.has_canonical_format:
            raise ValueError("the adjacency must be canonical: sorted columns, none twice")
        if a.diagonal().any():
            raise ValueError("the adjacency must have an empty diagonal")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr)

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


def _padded_rows(widths, budget) -> int:
    """How many leading rows of ascending `widths` fit `budget` as rows x widest, at least 1."""
    return max(1, int(np.searchsorted(widths * np.arange(1, len(widths) + 1), budget, "right")))


def _check_normalized(numericals):
    if numericals.size and (numericals.min() < -1e-12 or numericals.max() > 1 + 1e-12):
        raise ValueError("numerical features must be normalized to [0, 1] first")


def _sweep(ends, num, cat, cfg: ComparabilityConfig):
    """Yield each block's comparable pairs (i, j), i < j, as positions in key order.
    One set of buffers, sized for the widest block (`_BLOCK_ENTRIES` tested pairs,
    or one row wider), serves every block through `out=`, and dies with the sweep."""
    n, n_d = len(num), cat.shape[1]
    most_rows = math.isqrt(_BLOCK_ENTRIES)  # a window holds its block's rows
    size = max(_BLOCK_ENTRIES, int((ends - np.arange(n)).max(initial=0)))
    bufs = np.empty(size, dtype=bool), np.empty(size, dtype=bool), np.empty(size)
    counts = np.empty(size, dtype=np.min_scalar_type(n_d))  # differing features
    start = 0
    while start < n:
        stop = start + _padded_rows(ends[start:start + most_rows] - start, _BLOCK_ENTRIES)
        hi = int(ends[stop - 1])
        shape = (stop - start, hi - start)
        ok, test, gap = (b[:shape[0] * shape[1]].reshape(shape) for b in bufs)
        np.less(np.arange(start, stop)[:, None], np.arange(start, hi), out=ok)
        for f in range(num.shape[1]):
            np.subtract(num[start:stop, f][:, None], num[None, start:hi, f], out=gap)
            ok &= np.less_equal(np.abs(gap, out=gap), cfg.t_r, out=test)
        if n_d > cfg.t_d:  # else every pair passes
            differing = counts[:shape[0] * shape[1]].reshape(shape)
            differing[...] = 0
            for f in range(n_d):
                differing += np.not_equal(cat[start:stop, f][:, None], cat[None, start:hi, f],
                                          out=test)
            ok &= np.less_equal(differing, cfg.t_d, out=test)
        bi, bj = np.nonzero(ok)
        yield bi + start, bj + start
        start = stop


def build_comparability_graph(d: Dataset, cfg: ComparabilityConfig) -> ComparabilityGraph:
    """Evaluate the predicate over all pairs and assemble the graph.

    Rows are sorted on the first numerical feature (kept in input order
    without numericals) and swept forward in blocks: each block is compared
    with itself and the rows after it, so every pair is tested once, in the
    block of its earlier row. With numerical features a block's window ends
    after the last row whose sort key is at most its last row's key plus
    t_r plus a 1e-12 pad, by `np.searchsorted`: a superset of the rows within
    t_r, and the exact predicate decides inside the window. Without
    numerical features the window runs to the last row. A block takes as
    many rows as keep rows x window within `_BLOCK_ENTRIES`, and at least
    one, so the sweep's temporaries are bounded whatever the data.

    Pairs are kept as int32 ids (int64 from n = 2**31), each list dropped
    once concatenated, and assembled into H, one entry per pair; A = H + H^T
    is the canonical CSR (sorted int32 indices, bool data). The assembly
    peaks at about twice the final CSR's bytes.
    """
    _check_normalized(d.numericals)
    n = d.n
    idx = np.int32 if n < 2**31 else np.int64

    key = d.numericals[:, 0] if d.n_numerical else np.zeros(n)
    order = np.argsort(key, kind="stable").astype(idx)
    key, num, cat = key[order], d.numericals[order], d.categoricals[order]
    # The pad exceeds any rounding of key + t_r on keys in [-1e-12, 1 + 1e-12].
    ends = np.searchsorted(key, key + (cfg.t_r + 1e-12), side="right")
    pairs_i, pairs_j = [], []
    for bi, bj in _sweep(ends, num, cat, cfg):
        pairs_i.append(order[bi])
        pairs_j.append(order[bj])

    i = np.concatenate(pairs_i) if pairs_i else np.zeros(0, dtype=idx)
    del pairs_i
    j = np.concatenate(pairs_j) if pairs_j else np.zeros(0, dtype=idx)
    del pairs_j
    from scipy import sparse

    half = sparse.csr_matrix((np.ones(len(i), dtype=bool), (i, j)), shape=(n, n))
    del i, j
    return ComparabilityGraph(half + half.T.tocsr())
