"""Global sample proximity from the comparability graph via random walk with restart.

The graph adjacency A is symmetrically normalized into a plain CSR
matrix W = D^(-1/2) A D^(-1/2) on A's own index arrays, and the
proximity matrix is

    Q = (1 - p) (I - p W)^(-1),

where p in [0, 1) is the damping factor. Smaller p keeps more restart
mass on the diagonal and therefore more locality. Q is an operator:
up to p = 0.2 the walk solves `apply(V)` = Q @ V and `rows(idx)` on the
sparse W, and `cross_block` solves the block Q[G0, G1] between two groups
once, by block Cholesky, without forming Q; above p = 0.2, I - pW is
inverted once. A cheap bypass uses the row-normalized adjacency D^-1 A
directly (no walk); its `apply` leaves out the 1/degree row factor, which
the estimates cancel. For any storage, `other_group_rows` reads Q's
other-group entries in bounded row blocks, for the explanations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .comparability import _BLOCK_ENTRIES, ComparabilityGraph

_TOL = 1e-14  # largest relative fixed-point update
_WALK_MAX_DAMPING = 0.2  # above it ~150 solved rows (mitigate, n = 2,400) cost more than inverting


def _walk(w: sparse.csr_matrix, damping: float, b, entrywise: bool = True) -> np.ndarray:
    """(1 - p)(I - pW)^(-1) B, B >= 0, by the fixed point X <- (1 - p)B + pWX, rising
    as W >= 0 (p = 0 returns B). It stops once each entry's update is below `_TOL` of
    the entry, so far, tiny entries are reached and accurate; with `entrywise=False`,
    of the column's largest once the support is stable: fewer steps, ranks the largest."""
    b = (1.0 - damping) * b
    x, support = b, np.count_nonzero(b)
    while True:
        nxt = b + damping * (w @ x)
        grown = np.count_nonzero(nxt)
        ref = nxt if entrywise else nxt.max(axis=0, initial=0.0)
        if grown == support and (nxt - x <= _TOL * ref).all():
            return nxt
        x, support = nxt, grown


def _eye_minus(w: sparse.csr_matrix, damping: float) -> np.ndarray:
    """I - pW of a square block of W, dense and F-ordered for LAPACK."""
    m = w.toarray(order="F")
    m *= -damping
    m[np.diag_indices(m.shape[0])] += 1.0
    return m


def _inverse(w: sparse.csr_matrix, damping: float) -> np.ndarray:
    """Every row of Q by one exact in-place inversion of the SPD I - pW,
    clipped to [0, 1]; the n x n result is the only dense allocation."""
    from scipy import linalg

    q = linalg.inv(_eye_minus(w, damping), overwrite_a=True, check_finite=False)
    q *= 1.0 - damping
    np.clip(q, 0.0, 1.0, out=q)
    return q.T  # Q is symmetric; the transpose is C-ordered, so rows read contiguously


def _cross_block(w: sparse.csr_matrix, damping: float, first: np.ndarray) -> np.ndarray:
    """Q[first, ~first], exactly, by block elimination on the SPD M = I - pW
    (eigenvalues in [1 - p, 1 + p]): M[first, first] = LL^T, Z = L^-1 pW[first, ~first],
    the Schur complement S = M[~first, ~first] - Z^T Z = KK^T, and then
    Q[first, ~first] = (1 - p) L^-T Z S^-1, clipped to [0, 1] as `_inverse` is.
    About 0.7 n^3 flops against 2 n^3 for the inverse, fewer when the larger
    side is eliminated first, as here. For two equal sides the peak is three
    n/2 x n/2 arrays (L, Z, K), and the result is Z's."""
    from scipy.linalg import blas, lapack

    if np.count_nonzero(first) < len(first) / 2:
        return _cross_block(w, damping, ~first).T
    g0, g1 = np.flatnonzero(first), np.flatnonzero(~first)
    if not len(g0) or not len(g1):
        return np.zeros((len(g0), len(g1)))
    top = w[g0]
    chol_a, bad_a = lapack.dpotrf(_eye_minus(top[:, g0], damping), lower=1, clean=0,
                                  overwrite_a=1)
    z = blas.dtrsm(damping, chol_a, top[:, g1].toarray(order="F"), lower=1, overwrite_b=1)
    s = blas.dsyrk(-1.0, z, beta=1.0, c=_eye_minus(w[g1][:, g1], damping), trans=1,
                   lower=1, overwrite_c=1)
    chol_s, bad_s = lapack.dpotrf(s, lower=1, clean=0, overwrite_a=1)
    if bad_a or bad_s:
        raise ValueError("I - pW is not positive definite")
    x = blas.dtrsm(1.0, chol_a, z, lower=1, trans_a=1, overwrite_b=1)  # L^-T Z
    del chol_a
    x = blas.dtrsm(1.0, chol_s, x, side=1, lower=1, trans_a=1, overwrite_b=1)
    x = blas.dtrsm(1.0 - damping, chol_s, x, side=1, lower=1, overwrite_b=1)
    np.clip(x, 0.0, 1.0, out=x)
    return x


@dataclass(frozen=True, eq=False)
class Proximity:
    """Q as an operator. Either stored, Q = diag(scale) @ `matrix` (a read-only
    dense array, or CSR: the bypass keeps its 0/1 adjacency, scale = 1/degree),
    or the walk on `w` with `damping`, solved on demand until `inverted`."""

    matrix: np.ndarray | sparse.csr_matrix | None = None
    scale: np.ndarray | None = None
    w: sparse.csr_matrix | None = None
    damping: float = 0.0

    def __post_init__(self):
        if sparse.issparse(self.matrix):
            m = sparse.csr_matrix(self.matrix, dtype=float)
            if not m.has_canonical_format:  # so each row's columns ascend, once each
                m = m.copy()
                m.sum_duplicates()
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
            self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return (self.w if self.matrix is None else self.matrix).shape[0]

    def apply(self, v) -> np.ndarray:
        """Q @ V, for a stored Q without the row factor `scale`."""
        v = np.asarray(v, dtype=float)
        if not np.isfinite(v).all():
            raise ValueError("V must be finite")
        if self.matrix is not None:
            return np.asarray(self.matrix @ v)
        if (v < 0.0).any():  # by linearity, one walk per sign keeps every entry accurate
            return self.apply(np.maximum(v, 0.0)) - self.apply(np.maximum(-v, 0.0))
        return _walk(self.w, self.damping, v)

    def _padded_rows(self, r, first) -> tuple:
        """Rows Q[r] of a CSR `matrix` as (len(r), widest) arrays of stored
        column indices and values, zero-padded, entries in r's group zeroed."""
        block = self.matrix[r]
        counts = np.diff(block.indptr)
        at = np.repeat(np.arange(len(r)), counts)  # position within r
        pos = np.arange(block.nnz) - block.indptr[at]  # position within the row
        data = np.where(first[block.indices] != first[r][at], block.data, 0.0)
        if self.scale is not None:
            data *= self.scale[r][at]
        col = np.zeros((len(r), counts.max()), dtype=block.indices.dtype)
        sim = np.zeros(col.shape)
        col[at, pos], sim[at, pos] = block.indices, data
        return col, sim

    def rows(self, idx, entrywise: bool = True) -> np.ndarray:
        """Rows Q[idx] as a dense (len(idx), n) array; a solved row is
        accurate in every entry, or with `entrywise=False` in its largest."""
        idx = np.asarray(idx, dtype=int)
        if self.matrix is None:
            e = np.zeros((self.n, len(idx)))
            e[idx, np.arange(len(idx))] = 1.0
            return _walk(self.w, self.damping, e, entrywise).T  # Q is symmetric
        m = self.matrix[idx]
        m = m.toarray() if sparse.issparse(m) else m
        return m if self.scale is None else m * self.scale[idx, None]

    def other_group_rows(self, first, rows, whole: bool = False):
        """Yield blocks (r, col, sim), sim = Q[r, col], of the other-group entries
        of `rows`, the groups split by the boolean mask `first`, with columns
        ascending within a row: for a CSR Q, its rows
        zero-padded to the block's widest, same-group entries zeroed; for the
        walk (with `whole`, rows of its cross block, solved once) and a dense Q,
        col = other[None, :]. A block has at least one row and one column and at
        most a quarter of `_BLOCK_ENTRIES` entries, as its reader holds about a
        dozen temporaries of its size."""
        first = np.asarray(first, dtype=bool)
        rows = np.asarray(rows, dtype=int)
        budget = _BLOCK_ENTRIES // 4
        if sparse.issparse(self.matrix):
            counts = np.diff(self.matrix.indptr)[rows]
            by_width = np.argsort(counts, kind="stable")  # so a block's rows pad little
            by_width = by_width[counts[by_width] > 0]
            rows, counts = rows[by_width], counts[by_width]
            start = 0
            while start < len(rows):
                width = counts[start:start + max(budget, 1)]  # ascending: the last is widest
                entries = width * np.arange(1, len(width) + 1)
                stop = start + max(1, int(np.searchsorted(entries, budget, side="right")))
                r, start = rows[start:stop], stop
                yield (r, *self._padded_rows(r, first))
            return
        cross = self.cross_block(first) if whole and self.matrix is None else None
        for side in (True, False):
            same = first == side
            other = np.flatnonzero(~same)
            if not len(other):
                continue
            at = np.cumsum(same) - 1  # position within the side
            mine = rows[same[rows]]
            step = max(1, budget // len(other))
            for start in range(0, len(mine), step):
                r = mine[start:start + step]
                if cross is None:
                    yield r, other[None, :], self.rows(r)[:, other]
                else:
                    yield r, other[None, :], cross[at[r]] if side else cross[:, at[r]].T

    def cross_block(self, first) -> np.ndarray:
        """Q[first, ~first] of the walk for a boolean mask `first`: every entry
        between the two sides, solved at once without forming Q."""
        return _cross_block(self.w, self.damping, np.asarray(first, dtype=bool))

    def inverted(self) -> Proximity:
        """Q with every row stored, for callers that read them all: the walk
        inverted once, exactly; a stored Q as it is."""
        return Proximity(matrix=_inverse(self.w, self.damping)) if self.matrix is None else self


def symmetric_normalize(g: ComparabilityGraph) -> sparse.csr_matrix:
    """Compute W = D^(-1/2) A D^(-1/2) as CSR, with zero rows for degree-0
    vertices: entry (i, j) is s_i s_j, s = 1/sqrt(degree), on A's own index
    arrays."""
    a = g.adjacency
    s = np.zeros(g.n)
    nonzero = g.degree > 0
    s[nonzero] = 1.0 / np.sqrt(g.degree[nonzero])
    data = np.repeat(s, np.diff(a.indptr))
    data *= s[a.indices]
    return sparse.csr_matrix((data, a.indices, a.indptr), shape=a.shape)


def rwr_proximity(w: sparse.csr_matrix, damping: float = 0.1) -> Proximity:
    """Q = (1 - p)(I - p W)^(-1) for W from `symmetric_normalize` (spectral
    radius <= 1) and the damping factor p, 0 <= p < 1 (p = 0 gives Q = I):
    up to p = 0.2 the walk, solved on demand, above it inverted once."""
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    q = Proximity(w=w, damping=damping)
    return q.inverted() if damping > _WALK_MAX_DAMPING else q


def adjacency_similarity(g: ComparabilityGraph) -> Proximity:
    """Row-normalized adjacency D^-1 A, bypassing the walk, for data too large
    to solve Q: the 0/1 adjacency stays CSR, and with the graph build and the
    explanations in bounded blocks the whole path runs in O(edges) memory.
    Isolated vertices get an all-zero row (diagonal included), so their
    estimates may be undefined."""
    inv_deg = np.divide(1.0, g.degree, out=np.zeros(g.n), where=g.degree > 0)
    return Proximity(matrix=g.adjacency, scale=inv_deg)
