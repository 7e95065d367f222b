"""Global sample proximity from the comparability graph via random walk with restart.

The graph adjacency A is symmetrically normalized into a plain CSR
matrix W = D^(-1/2) A D^(-1/2), and the proximity matrix solves

    Q = (1 - p) (I - p W)^(-1),

where p in [0, 1) is the damping factor. Smaller p keeps more restart
mass on the diagonal and therefore more locality. I - pW is symmetric
positive definite, so Q comes from one exact in-place inversion. A cheap
bypass uses the row-normalized adjacency D^-1 A directly (no walk); it
stays a sparse matrix, so it costs O(edges) memory rather than O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse

from .comparability import ComparabilityGraph


@dataclass(frozen=True)
class SimilarityMatrix:
    """Proximity Q: a read-only dense array from the walk, or a CSR matrix
    from the adjacency bypass."""

    matrix: np.ndarray | sparse.csr_matrix

    def __post_init__(self):
        if sparse.issparse(self.matrix):
            mat = sparse.csr_matrix(self.matrix, dtype=float)
        else:
            mat = np.asarray(self.matrix, dtype=float)
            mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self):
        return self.matrix.shape[0]

    def rows(self, idx) -> np.ndarray:
        """Rows Q[idx] as a dense (len(idx), n) array."""
        block = self.matrix[np.asarray(idx, dtype=int)]
        return block.toarray() if sparse.issparse(block) else block


def symmetric_normalize(g: ComparabilityGraph) -> sparse.csr_matrix:
    """Compute W = D^(-1/2) A D^(-1/2) as CSR, with zero rows for degree-0 vertices."""
    inv_sqrt = np.zeros(g.n)
    nonzero = g.degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(g.degree[nonzero])
    scale = sparse.diags(inv_sqrt)
    w = scale @ g.adjacency.astype(float) @ scale
    return w.tocsr()


def rwr_proximity(w: sparse.csr_matrix, damping: float = 0.1) -> SimilarityMatrix:
    """Solve Q = (1 - p)(I - p W)^(-1) for the damping factor p.

    W has spectral radius <= 1, so I - pW is symmetric positive definite
    and is inverted exactly, in place: the n x n result is the only dense
    array the solve allocates. Entries are clipped to [0, 1] to remove
    rounding outside the unit interval.

    Parameters
    ----------
    w : sparse.csr_matrix
        Symmetrically normalized adjacency; spectral radius <= 1.
    damping : float
        Walk continuation probability p, 0 <= p < 1. p = 0 gives Q = I.
    """
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    q = w.toarray(order="F")
    q *= -damping
    q[np.diag_indices(w.shape[0])] += 1.0
    q = linalg.inv(q, overwrite_a=True, check_finite=False)
    q *= 1.0 - damping
    np.clip(q, 0.0, 1.0, out=q)
    # The system is symmetric, so Q is too; its transpose is a C-ordered
    # view of the same array, which keeps per-sample row reads contiguous.
    return SimilarityMatrix(matrix=q.T)


def adjacency_similarity(g: ComparabilityGraph) -> SimilarityMatrix:
    """Row-normalized adjacency D^-1 A as a similarity, bypassing the walk.

    Intended for data large enough that solving for Q is not worth it:
    the result stays CSR with exactly the graph's stored entries, so it
    takes O(edges) memory and is never densified. Isolated vertices get
    an all-zero row (their own diagonal included), so downstream
    estimates may come back undefined for them.
    """
    inv_deg = np.zeros(g.n)
    nonzero = g.degree > 0
    inv_deg[nonzero] = 1.0 / g.degree[nonzero]
    q = sparse.diags(inv_deg) @ g.adjacency.astype(float)
    return SimilarityMatrix(matrix=q.tocsr())
