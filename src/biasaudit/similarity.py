"""Global sample proximity from the comparability graph via random walk with restart.

The graph adjacency A is symmetrically normalized into a plain CSR
matrix W = D^(-1/2) A D^(-1/2) on A's own index arrays, and the
proximity matrix is

    Q = (1 - p) (I - p W)^(-1),

where p in [0, 1) is the damping factor. Smaller p keeps more restart
mass on the diagonal and therefore more locality. Q is an operator,
`Proximity`, with one subclass per storage, and neither makes an n x n array.
`WalkProximity` solves Q @ V and rows of Q on the sparse W at every damping,
in about ln(1e-14) / ln p steps (some 300 at p = 0.9), and, for the
explanations, the block Q[G0, G1] by block Cholesky in LAPACK's Rectangular
Full Packed storage (Gustavson et al., ACM TOMS 37(2), 2010).
`StoredProximity` is the cheap bypass, the row-normalized adjacency D^-1 A
kept as the graph's boolean CSR and read in row blocks of bounded entries.

`_walk` is the only fixed-point loop, and its entrywise rule the only stop
rule; `nearest` ends it at the first step whose truncated series and a bound
on the rest prove the top k (as in Wei et al., "TopPPR", SIGMOD 2018).

scipy is imported where it is used, as in `comparability`: `scipy.sparse` to
check a stored Q and to build W, `scipy.linalg` in the dense cross block only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .comparability import _BLOCK_ENTRIES, ComparabilityGraph, _padded_rows
from .data import _sample_indices

_TOL = 1e-14  # largest relative fixed-point update
_W_BLOCK = 65536 // 8  # entries: a block's repeated s_i stays under glibc's 128 KiB mmap threshold


def _walk(w: sparse.csr_matrix, damping: float, b, done=None) -> np.ndarray:
    """(1 - p)(I - pW)^(-1) B, B >= 0, by the fixed point X <- (1 - p)B + pWX, rising
    as W >= 0 (p = 0 returns B). It stops once each entry's update is below `_TOL` of
    the entry (a newly positive entry's update is all of it), so far, tiny entries are
    reached and accurate, or at the first iterate for which `done` holds, if given."""
    b = (1.0 - damping) * b
    x = b
    while True:
        nxt = b + damping * (w @ x)
        if (nxt - x <= _TOL * nxt).all() or done and done(nxt):
            return nxt
        x = nxt


def _row_blocks(ends: np.ndarray, budget: int):
    """Yield (lo, hi) for consecutive row blocks that cover rows 0 to
    len(ends) - 1, where row r holds ends[r + 1] - ends[r] entries (a CSR
    indptr). A block holds at most `budget` entries, or one row wider than that."""
    lo, n = 0, len(ends) - 1
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + budget, side="right")) - 1)
        yield lo, hi
        lo = hi


def _k_best(key, k):
    """Row-major (rows, columns) of each row's k >= 1 smallest finite keys, ties leftmost."""
    kth = np.partition(key, min(k, key.shape[1]) - 1, axis=1)[:, min(k, key.shape[1]) - 1]
    ri, ci = np.nonzero((key <= kth[:, None]) & (key < np.inf))  # the candidates
    tie = key[ri, ci] == kth[ri]
    seen = np.cumsum(tie) - tie  # ties before each candidate, over all rows
    room = k - np.bincount(ri[~tie], minlength=len(key))  # ties each row may take
    take = ~tie | (seen - seen[np.searchsorted(ri, ri)] < room[ri])
    return ri[take], ci[take]


def _certified(x: np.ndarray, cand: np.ndarray, k: int, tail: np.ndarray) -> bool:
    """Whether the bounds prove the top k, k < len(cand), of every row q with
    x <= q <= x + tail (+ `_TOL` of x's largest, for rounding): each of the k best
    lower bounds exceeds the next one's upper bound, and the k-th exceeds 0 and
    every other upper bound. Then those lower bounds are positive and strictly
    ordered, so x's top k of `cand` is the proven list."""
    lo = x[cand]
    best = _k_best(-lo[None], k)[1]
    best = best[np.argsort(-lo[best], kind="stable")]
    hi = lo + tail + _TOL * x.max()
    chain = lo[best[:-1]] > hi[best[1:]]
    hi[best] = 0.0  # as x >= 0, the others' upper bounds are too
    return bool(chain.all() and lo[best[-1]] > hi.max())


def _entries(w: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray):
    """Blocks (i, j, v) of the stored entries of W[rows][:, cols], i and j their
    positions in `rows` and in `cols` (distinct indices), v their values. A block
    covers rows holding at most len(rows) stored entries of W, or one row wider than
    that, so temporaries stay O(len(rows)) beside an n-long column map."""
    at = np.full(w.shape[1], -1, dtype=np.int64)
    at[cols] = np.arange(len(cols))
    ends = np.concatenate(([0], np.cumsum(w.indptr[rows + 1] - w.indptr[rows])))
    for lo, hi in _row_blocks(ends, len(rows)):
        counts = np.diff(ends[lo:hi + 1])
        pos = np.arange(ends[lo], ends[hi]) + np.repeat(w.indptr[rows[lo:hi]] - ends[lo:hi], counts)
        j = at[w.indices[pos]]
        kept = j >= 0
        yield np.repeat(np.arange(lo, hi), counts)[kept], j[kept], w.data[pos[kept]]


def _packed_eye_minus(w: sparse.csr_matrix, idx: np.ndarray, damping: float,
                      out: np.ndarray) -> np.ndarray:
    """The lower triangle of I - pW[idx][:, idx], m = len(idx), in LAPACK's
    Rectangular Full Packed storage (transr "N", uplo "L"): the first m(m + 1)/2
    doubles of `out`, zeroed and written from W's stored entries, and returned as a
    view, no m x m array made. With k = m/2 and ld = m + 1 for even m, entry (i, j),
    i >= j, sits at i + 1 + j ld if j < k, else at (j - k) + (i - k) ld; with
    k = (m + 1)/2 and ld = m for odd m, at i + j ld if j < k, else at
    (j - k) + (i - k + 1) ld."""
    m = len(idx)
    odd = m % 2
    k, ld = (m + odd) // 2, m + 1 - odd

    def at(i, j):
        return np.where(j < k, i + 1 - odd + j * ld, j - k + (i - k + odd) * ld)

    packed = out[:m * (m + 1) // 2]
    packed.fill(0.0)
    for i, j, v in _entries(w, idx, idx):
        lower = i >= j
        packed[at(i[lower], j[lower])] = v[lower] * -damping
    diag = np.arange(m)
    packed[at(diag, diag)] += 1.0
    return packed


def _cholesky(packed: np.ndarray, m: int) -> np.ndarray:
    """The lower Cholesky factor of the SPD m x m block of I - pW held as
    `_packed_eye_minus` gives it, in the same packed storage and memory."""
    from scipy.linalg import lapack

    chol, bad = lapack.dpftrf(m, packed, transr="N", uplo="L", overwrite_a=1)
    if bad:
        raise ValueError("I - pW is not positive definite")
    return chol


def _cross_block(w: sparse.csr_matrix, damping: float, first: np.ndarray) -> np.ndarray:
    """Q[first, ~first], exactly, by block elimination on the SPD M = I - pW
    (eigenvalues in [1 - p, 1 + p]): with M[first, first] = LL^T, Z = L^-1 pW[first, ~first]
    and the Schur complement S = M[~first, ~first] - Z^T Z = KK^T,
    Q[first, ~first] = (1 - p) L^-T Z K^-T K^-1, clipped to [0, 1], where Q's entries lie.
    It is the only dense solve, read only for the explanations of many rows.
    Z is written from W's stored entries into a zeroed Fortran-order m0 x m1 array
    and solved in place. One packed buffer of M(M + 1)/2 doubles, M = max(m0, m1),
    holds each triangle in turn (`_packed_eye_minus`): L, then S and its factor K
    for the right solves, then L again, factored anew for the last solve. With
    m0 = |first| and m1 = |~first|, that is (2/3) m0^3 + 2 m0^2 m1 + 3 m0 m1^2 + m1^3 / 3
    flops, |m0 - m1|^3 / 3 fewer than the other order if `first` is the smaller group
    (0.75 n^3 for equal groups, against 2 n^3 for a whole inverse). The peak is
    m0 m1 + M(M + 1)/2 doubles, and the result is Z's memory."""
    from scipy.linalg import lapack

    g0, g1 = np.flatnonzero(first), np.flatnonzero(~first)
    m0, m1 = len(g0), len(g1)
    if not m0 or not m1:
        return np.zeros((m0, m1))
    z = np.zeros((m0, m1), order="F")
    for i, j, v in _entries(w, g0, g1):
        z[i, j] = v
    packed = np.empty(max(m0, m1) * (max(m0, m1) + 1) // 2)
    rfp = {"transr": "N", "uplo": "L"}
    chol_a = _cholesky(_packed_eye_minus(w, g0, damping, packed), m0)
    z = lapack.dtfsm(damping, chol_a, z, **rfp, overwrite_b=1)
    chol_s = _cholesky(lapack.dsfrk(m1, m0, -1.0, z, 1.0, _packed_eye_minus(w, g1, damping, packed),
                                    **rfp, trans="T", overwrite_c=1), m1)
    z = lapack.dtfsm(1.0, chol_s, z, **rfp, side="R", trans="T", overwrite_b=1)  # Z K^-T
    z = lapack.dtfsm(1.0 - damping, chol_s, z, **rfp, side="R", overwrite_b=1)
    chol_a = _cholesky(_packed_eye_minus(w, g0, damping, packed), m0)
    z = lapack.dtfsm(1.0, chol_a, z, **rfp, trans="T", overwrite_b=1)  # L^-T Z S^-1
    np.clip(z, 0.0, 1.0, out=z)
    return z


class Proximity:
    """Q over `n` samples: the argument checks both storages share, behind which a
    subclass reads Q in `_apply`, `_rows`, `_ranking` and `_blocks`."""

    def apply(self, v) -> np.ndarray:
        """Q @ V for a finite V >= 0, for a boolean stored Q without its row factor
        1/degree, which the estimates cancel. Left out, each adjacency credibility
        is an exact ratio of whole neighbour counts, so equal fractions are bit-equal
        and tied contributors are listed by index; scaled rows would reorder them."""
        v = np.asarray(v, dtype=float)
        if not (np.isfinite(v) & (v >= 0.0)).all():
            raise ValueError("V must be finite and non-negative")
        return self._apply(v)

    def rows(self, idx) -> np.ndarray:
        """Rows Q[idx] as a dense (len(idx), n) array, a solved row accurate in every
        entry. A non-integer index or one outside [0, n) is an IndexError."""
        return self._rows(_sample_indices(idx, self.n))

    def nearest(self, i: int, mask, k: int) -> np.ndarray:
        """The k columns j != i of the boolean `mask` (length n) with the largest
        Q[i, j] > 0, by Q descending, then index ascending, ranked on `_ranking`'s row
        (the walk's settled row if k covers every candidate). A negative k or a mask of
        another length is a ValueError, k = 0 gives [], and a non-index i an IndexError."""
        if k < 0:
            raise ValueError("k must be non-negative")
        i = int(_sample_indices(i, self.n))
        if len(mask) != self.n:
            raise ValueError(f"mask over {len(mask)} rows does not match the {self.n} rows of Q")
        cand = np.flatnonzero(mask)
        cand = cand[cand != i]
        if k == 0 or not len(cand):
            return cand[:0]
        row = self._ranking(i, cand, k)[cand]
        best = _k_best(np.where(row > 0.0, -row, np.inf)[None], k)[1]
        return cand[best[np.argsort(-row[best], kind="stable")]]

    def other_group_rows(self, first, rows):
        """Blocks (r, col, sim), sim = Q[r, col], of the other-group entries of
        `rows`, the groups split by the boolean mask `first`, with columns
        ascending within a row. A block has at least one row and one column and
        at most a quarter of `_BLOCK_ENTRIES` entries, as its reader holds about
        a dozen temporaries of its size."""
        return self._blocks(np.asarray(first, dtype=bool), _sample_indices(rows, self.n),
                            _BLOCK_ENTRIES // 4)


@dataclass(frozen=True, eq=False)
class WalkProximity(Proximity):
    """Q = (1 - p)(I - pW)^(-1), the walk on `w` (from `symmetric_normalize`) at
    `damping` p, solved on demand; a p outside [0, 1) is a ValueError."""

    w: sparse.csr_matrix
    damping: float

    def __post_init__(self):
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def _apply(self, v):
        return _walk(self.w, self.damping, v)

    def _rows(self, idx):
        e = np.zeros((self.n, len(idx)))
        e[idx, np.arange(len(idx))] = 1.0
        return _walk(self.w, self.damping, e).T  # Q is symmetric

    @cached_property
    def _tail(self) -> tuple:
        """sqrt(d) and mu / sqrt(d), mu_j the largest 1/d_v over j's neighbours v
        (0 if none). As W^k = D^(1/2) P^k D^(-1/2), P = D^-1 A, and P^k[i, j] <= mu_j,
        the walk's steps after K add at most p^(K+1) sqrt(d_i) mu_j / sqrt(d_j) to
        Q[i, j]. W[j, v] = 1/sqrt(d_j d_v) gives mu_j / d_j = max_v W[j, v]^2, read
        in O(edges) without a copy of W."""
        root = np.sqrt(np.diff(self.w.indptr))
        return root, self.w.max(axis=1).toarray().ravel() ** 2 * root

    def _ranking(self, i, cand, k):
        """The walk from e_i, ended at the first step whose `_tail` bound certifies
        the top k of more than k `cand`; settled, if none does (exact ties closer
        than its rounding slack) or the list takes every candidate."""
        root, per_col = self._tail
        tail = self.damping * root[i] * per_col[cand]  # the bound after 0 steps

        def proven(x):
            nonlocal tail
            tail *= self.damping  # the bound after one more step
            return _certified(x, cand, k, tail)

        return _walk(self.w, self.damping, np.eye(1, self.n, i)[0],  # from e_i
                     proven if k < len(cand) else None)

    def _blocks(self, first, rows, budget):
        """Every other-group column, col = other[None, :], for one row solved
        alone, for more read from the cross block, solved once."""
        cross = _cross_block(self.w, self.damping, first) if len(rows) > 1 else None
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
                sim = (self.rows(r)[:, other] if cross is None
                       else cross[at[r]] if side else cross[:, at[r]].T)
                yield r, other[None, :], sim


@dataclass(frozen=True, eq=False)
class StoredProximity(Proximity):
    """Q stored as a canonical CSR `matrix`: a float64 one is Q itself, a boolean
    one the graph's adjacency A read as D^-1 A, its row factor `_scale` 1/degree
    (0 on an empty row) derived from its `indptr`. Anything else is a TypeError."""

    matrix: sparse.csr_matrix

    def __post_init__(self):
        from scipy import sparse

        m = self.matrix
        if not (sparse.issparse(m) and m.format == "csr" and m.dtype in (bool, np.float64)
                and m.has_canonical_format):
            raise TypeError("a stored Q must be a canonical boolean or float64 CSR")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _scale(self) -> np.ndarray:
        degree = np.diff(self.matrix.indptr)
        return (np.divide(1.0, degree, out=np.zeros(self.n), where=degree > 0)
                if self.matrix.dtype == bool else np.ones(self.n))

    def _apply(self, v):
        """In row blocks of at most `_BLOCK_ENTRIES` stored entries (a wider row
        alone), as scipy casts a boolean CSR's data to float for each product; each
        row still sums in stored column order, as one product would."""
        out = np.empty((self.n,) + v.shape[1:])
        for lo, hi in _row_blocks(self.matrix.indptr, _BLOCK_ENTRIES):
            out[lo:hi] = self.matrix[lo:hi] @ v
        return out

    def _rows(self, idx):
        return self.matrix[idx].toarray().astype(float, copy=False) * self._scale[idx, None]

    def _ranking(self, i, cand, k):
        return self._rows(np.array([i]))[0]

    def _blocks(self, first, rows, budget):
        """Rows with entries, widest last so a block pads little, as column indices and
        values zero-padded to the block's widest, same-group values zeroed."""
        counts = np.diff(self.matrix.indptr)[rows]
        by_width = np.flatnonzero(counts)[np.argsort(counts[counts > 0], kind="stable")]
        rows, counts = rows[by_width], counts[by_width]
        start = 0
        while start < len(rows):
            stop = _padded_rows(counts[start:start + max(budget, 1)], budget)  # each 1 or wider
            r, width, start = rows[start:start + stop], counts[start:start + stop], start + stop
            block = self.matrix[r]
            at = np.repeat(np.arange(len(r)), width)  # position within r
            pos = np.arange(block.nnz) - block.indptr[at]  # position within the row
            col = np.zeros((len(r), width[-1]), dtype=block.indices.dtype)
            sim = np.zeros(col.shape)
            col[at, pos] = block.indices
            sim[at, pos] = np.where(first[block.indices] != first[r][at], block.data,
                                    0.0) * self._scale[r][at]
            yield r, col, sim


def symmetric_normalize(g: ComparabilityGraph) -> sparse.csr_matrix:
    """Compute W = D^(-1/2) A D^(-1/2) as CSR, with zero rows for degree-0
    vertices: entry (i, j) is s_i s_j, s = 1/sqrt(degree), on A's own index
    arrays. Its data is s gathered at the column indices, scaled by s_i in row
    blocks of at most `_W_BLOCK` entries (a wider row alone), so one block's
    repeated s_i is the only temporary beside it."""
    a = g.adjacency
    s = np.zeros(g.n)
    nonzero = g.degree > 0
    s[nonzero] = 1.0 / np.sqrt(g.degree[nonzero])
    data = s[a.indices]
    # a mapped and freed temporary would raise glibc's mmap threshold, and later
    # arrays would then stay resident
    for lo, hi in _row_blocks(a.indptr, _W_BLOCK):
        data[a.indptr[lo]:a.indptr[hi]] *= np.repeat(s[lo:hi], np.diff(a.indptr[lo:hi + 1]))
    from scipy import sparse

    return sparse.csr_matrix((data, a.indices, a.indptr), shape=a.shape)


def rwr_proximity(w: sparse.csr_matrix, damping: float = 0.1) -> WalkProximity:
    """The walk Q = (1 - p)(I - p W)^(-1) for W from `symmetric_normalize` (spectral
    radius <= 1) and the damping p in [0, 1) (p = 0 gives Q = I), else a ValueError."""
    return WalkProximity(w, damping)


def adjacency_similarity(g: ComparabilityGraph) -> StoredProximity:
    """Row-normalized adjacency D^-1 A, bypassing the walk, for data too large
    to solve Q: the graph's boolean CSR itself, on the same arrays. With the
    graph build, the products and the explanations in bounded blocks, and no
    float copy of A, the whole path runs in O(edges) memory. Isolated vertices
    get an all-zero row (diagonal included), so their estimates may be undefined."""
    return StoredProximity(g.adjacency)
