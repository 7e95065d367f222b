import numpy as np
import pytest
from scipy import sparse

from biasaudit.comparability import ComparabilityConfig, ComparabilityGraph, build_comparability_graph
from biasaudit.similarity import (
    adjacency_similarity,
    rwr_proximity,
    symmetric_normalize,
)

from util import make_dataset


def graph_from_dense(dense):
    dense = np.asarray(dense, dtype=bool)
    adj = sparse.csr_matrix(dense)
    return ComparabilityGraph(n=dense.shape[0], adjacency=adj,
                              degree=dense.sum(axis=1).astype(int))


PATH3 = graph_from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
K3 = graph_from_dense([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def random_graph(rng, n, p_edge=0.1):
    upper = np.triu(rng.random((n, n)) < p_edge, k=1)
    return graph_from_dense(upper | upper.T)


class TestSymmetricNormalize:
    def test_path_graph_hand_values(self):
        w = symmetric_normalize(PATH3).toarray()
        assert w[0, 1] == pytest.approx(0.7071067811865475, abs=1e-12)
        assert w[0, 2] == 0.0
        assert np.allclose(w, w.T)

    def test_complete_graph_k3(self):
        w = symmetric_normalize(K3).toarray()
        off = w[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5)

    def test_isolated_vertex_zero_row(self):
        g = graph_from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        w = symmetric_normalize(g).toarray()
        assert np.array_equal(w[2], np.zeros(3))
        assert np.array_equal(w[:, 2], np.zeros(3))


class TestRwrProximity:
    def test_zero_damping_gives_identity_exactly(self):
        q = rwr_proximity(symmetric_normalize(PATH3), damping=0.0)
        assert np.array_equal(q.matrix, np.eye(3))

    def test_path_graph_closed_form(self):
        # 3x3 inversion of I - 0.5*W done by hand: det = 3/4,
        # Q = (2/3) * [[7/8, a, 1/8], [a, 1, a], [1/8, a, 7/8]], a = 1/(2*sqrt(2))
        q = rwr_proximity(symmetric_normalize(PATH3), damping=0.5).matrix
        assert q[0, 0] == pytest.approx(7 / 12, abs=1e-12)
        assert q[0, 1] == pytest.approx(1 / (3 * np.sqrt(2)), abs=1e-12)
        assert q[0, 2] == pytest.approx(1 / 12, abs=1e-12)
        assert q[1, 1] == pytest.approx(2 / 3, abs=1e-12)

    def test_matches_dense_linear_solve_oracle(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 30, 0.2)
        w = symmetric_normalize(g)
        p = 0.37
        q = rwr_proximity(w, damping=p).matrix
        oracle = (1 - p) * np.linalg.inv(np.eye(30) - p * w.toarray())
        assert np.abs(q - oracle).max() < 1e-10

    def test_isolated_vertex_rows(self):
        g = graph_from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        q = rwr_proximity(symmetric_normalize(g), damping=0.3).matrix
        assert q[2, 2] == pytest.approx(0.7, abs=1e-12)
        assert q[2, 0] == 0.0 and q[2, 1] == 0.0

    def test_agrees_with_dense_oracle_across_damping(self):
        rng = np.random.default_rng(1)
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, 80, 0.08)
            w = symmetric_normalize(g)
            q = rwr_proximity(w, damping=p).matrix
            oracle = np.linalg.solve(np.eye(80) - p * w.toarray(), (1 - p) * np.eye(80))
            assert np.abs(q - oracle).max() < 1e-8

    def test_entries_in_unit_interval_and_diagonal_floor(self):
        rng = np.random.default_rng(2)
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, 50, 0.15)
            q = rwr_proximity(symmetric_normalize(g), damping=p).matrix
            assert q.min() >= 0.0 and q.max() <= 1.0
            assert (np.diag(q) >= (1 - p) - 1e-12).all()

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 60, 0.1)
        q = rwr_proximity(symmetric_normalize(g), damping=0.6).matrix
        assert np.abs(q - q.T).max() <= 1e-10

    def test_more_damping_spreads_mass_off_diagonal(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 40, 0.2)
        w = symmetric_normalize(g)
        q_local = rwr_proximity(w, damping=0.1).matrix
        q_spread = rwr_proximity(w, damping=0.5).matrix
        assert (np.diag(q_local) >= np.diag(q_spread) - 1e-12).all()

    def test_damping_domain(self):
        w = symmetric_normalize(PATH3)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                rwr_proximity(w, damping=bad)


class TestAdjacencySimilarity:
    def test_row_normalized(self):
        q = adjacency_similarity(PATH3).matrix.toarray()
        assert np.allclose(q[0], [0, 1, 0])
        assert np.allclose(q[1], [0.5, 0, 0.5])
        assert np.allclose(q.sum(axis=1), 1.0)

    def test_isolated_vertex_all_zero_row(self):
        g = graph_from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        q = adjacency_similarity(g).matrix.toarray()
        assert np.array_equal(q[2], np.zeros(3))

    def test_stays_sparse_with_the_graph_entries(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 40, 0.1)
        q = adjacency_similarity(g)
        assert sparse.issparse(q.matrix) and q.matrix.nnz == g.adjacency.nnz
        rows = q.rows([3, 0, 3])
        assert isinstance(rows, np.ndarray)
        assert np.array_equal(rows, q.matrix.toarray()[[3, 0, 3]])


def test_pipeline_from_comparability_graph():
    d = make_dataset([0.0, 0.1, 0.2], [], [1, 0, 1], [0, 0, 0])
    g = build_comparability_graph(d, ComparabilityConfig(0.1, 2))
    q = rwr_proximity(symmetric_normalize(g), damping=0.5).matrix
    assert q[0, 0] == pytest.approx(7 / 12, abs=1e-12)
