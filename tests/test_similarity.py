import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from biasaudit.attribution import (
    _explanations,
    attribute,
    bias_contributions,
    estimate_bias,
    estimate_credibility,
)
from biasaudit.comparability import ComparabilityConfig, ComparabilityGraph, build_comparability_graph
from biasaudit import similarity
from biasaudit.similarity import (
    Proximity,
    adjacency_similarity,
    rwr_proximity,
    symmetric_normalize,
)

from util import make_dataset, random_dataset


def graph_from_dense(dense):
    dense = np.asarray(dense, dtype=bool)
    adj = sparse.csr_matrix(dense)
    return ComparabilityGraph(n=dense.shape[0], adjacency=adj,
                              degree=dense.sum(axis=1).astype(int))


PATH3 = graph_from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
K3 = graph_from_dense([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def full(q):
    """Every row of the operator as one dense array."""
    return q.rows(np.arange(q.n))


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


    def test_same_csr_as_the_scaled_products(self):
        # diag(s) @ A @ diag(s) multiplies entry (i, j) by s_i, then by s_j:
        # the same index arrays and the same data, bit for bit
        rng = np.random.default_rng(11)
        d = random_dataset(rng, 600, n_num=2, n_cat=1)
        g = build_comparability_graph(d, ComparabilityConfig(0.06, 0))
        assert (g.degree == 0).any() and g.degree.max() > 1
        inv_sqrt = np.zeros(g.n)
        inv_sqrt[g.degree > 0] = 1.0 / np.sqrt(g.degree[g.degree > 0])
        scale = sparse.diags(inv_sqrt)
        products = (scale @ g.adjacency.astype(float) @ scale).tocsr()
        w = symmetric_normalize(g)
        assert w.dtype == products.dtype == np.float64
        for got, want in ((w.indptr, products.indptr), (w.indices, products.indices),
                          (w.data, products.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRwrProximity:
    def test_zero_damping_gives_identity_exactly(self):
        q = rwr_proximity(symmetric_normalize(PATH3), damping=0.0)
        assert np.array_equal(full(q), np.eye(3))

    def test_path_graph_closed_form(self):
        # 3x3 inversion of I - 0.5*W done by hand: det = 3/4,
        # Q = (2/3) * [[7/8, a, 1/8], [a, 1, a], [1/8, a, 7/8]], a = 1/(2*sqrt(2))
        q = full(rwr_proximity(symmetric_normalize(PATH3), damping=0.5))
        assert q[0, 0] == pytest.approx(7 / 12, abs=1e-12)
        assert q[0, 1] == pytest.approx(1 / (3 * np.sqrt(2)), abs=1e-12)
        assert q[0, 2] == pytest.approx(1 / 12, abs=1e-12)
        assert q[1, 1] == pytest.approx(2 / 3, abs=1e-12)

    def test_matches_dense_linear_solve_oracle(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 30, 0.2)
        w = symmetric_normalize(g)
        p = 0.37
        q = full(rwr_proximity(w, damping=p))
        oracle = (1 - p) * np.linalg.inv(np.eye(30) - p * w.toarray())
        assert np.abs(q - oracle).max() < 1e-10

    def test_isolated_vertex_rows(self):
        g = graph_from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        q = full(rwr_proximity(symmetric_normalize(g), damping=0.3))
        assert q[2, 2] == pytest.approx(0.7, abs=1e-12)
        assert q[2, 0] == 0.0 and q[2, 1] == 0.0

    def test_agrees_with_dense_oracle_across_damping(self):
        rng = np.random.default_rng(1)
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, 80, 0.08)
            w = symmetric_normalize(g)
            q = full(rwr_proximity(w, damping=p))
            oracle = np.linalg.solve(np.eye(80) - p * w.toarray(), (1 - p) * np.eye(80))
            assert np.abs(q - oracle).max() < 1e-8

    def test_entries_in_unit_interval_and_diagonal_floor(self):
        rng = np.random.default_rng(2)
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, 50, 0.15)
            q = full(rwr_proximity(symmetric_normalize(g), damping=p))
            assert q.min() >= 0.0 and q.max() <= 1.0
            assert (np.diag(q) >= (1 - p) - 1e-12).all()

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 60, 0.1)
        q = full(rwr_proximity(symmetric_normalize(g), damping=0.6))
        assert np.abs(q - q.T).max() <= 1e-10

    def test_more_damping_spreads_mass_off_diagonal(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 40, 0.2)
        w = symmetric_normalize(g)
        q_local = full(rwr_proximity(w, damping=0.1))
        q_spread = full(rwr_proximity(w, damping=0.5))
        assert (np.diag(q_local) >= np.diag(q_spread) - 1e-12).all()

    def test_damping_domain(self):
        w = symmetric_normalize(PATH3)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                rwr_proximity(w, damping=bad)


class TestAdjacencySimilarity:
    def test_row_normalized(self):
        q = full(adjacency_similarity(PATH3))
        assert np.allclose(q[0], [0, 1, 0])
        assert np.allclose(q[1], [0.5, 0, 0.5])
        assert np.allclose(q.sum(axis=1), 1.0)

    def test_isolated_vertex_all_zero_row(self):
        g = graph_from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        q = full(adjacency_similarity(g))
        assert np.array_equal(q[2], np.zeros(3))

    def test_stays_sparse_with_the_graph_entries(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 40, 0.1)
        q = adjacency_similarity(g)
        assert sparse.issparse(q.matrix) and q.matrix.nnz == g.adjacency.nnz
        rows = q.rows([3, 0, 3])
        assert isinstance(rows, np.ndarray)
        row_normalized = g.adjacency.toarray() / np.maximum(g.degree, 1)[:, None]
        assert np.array_equal(rows, row_normalized[[3, 0, 3]])


def test_pipeline_from_comparability_graph():
    d = make_dataset([0.0, 0.1, 0.2], [], [1, 0, 1], [0, 0, 0])
    g = build_comparability_graph(d, ComparabilityConfig(0.1, 2))
    q = full(rwr_proximity(symmetric_normalize(g), damping=0.5))
    assert q[0, 0] == pytest.approx(7 / 12, abs=1e-12)


def refuse(*args, **kwargs):
    raise AssertionError("unexpected solver")


def dense_oracle(w, p):
    return np.linalg.solve(np.eye(w.shape[0]) - p * w.toarray(), (1 - p) * np.eye(w.shape[0]))


@st.composite
def graph_instances(draw):
    """A graph of isolated vertices, paths and random blocks, shuffled so
    the components interleave, with random groups, labels and damping."""
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["isolated", "path", "random"]),
                              min_size=1, max_size=4)):
        if kind == "isolated":
            blocks.append(np.zeros((1, 1), dtype=bool))
        elif kind == "path":
            size = draw(st.integers(2, 12))
            blocks.append(np.eye(size, k=1, dtype=bool) | np.eye(size, k=-1, dtype=bool))
        else:
            size = draw(st.integers(2, 8))
            pairs = np.array(draw(st.lists(st.booleans(), min_size=size * (size - 1) // 2,
                                           max_size=size * (size - 1) // 2)), dtype=bool)
            upper = np.zeros((size, size), dtype=bool)
            upper[np.triu_indices(size, k=1)] = pairs
            blocks.append(upper | upper.T)
    n = sum(len(b) for b in blocks)
    perm = np.array(draw(st.permutations(range(n))), dtype=int)
    dense = sparse.block_diag(blocks).toarray().astype(bool)[np.ix_(perm, perm)]
    groups = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    damping = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    return graph_from_dense(dense), make_dataset(np.zeros(n), [], labels, groups), damping


class TestProximityOperator:
    @settings(max_examples=150, deadline=None)
    @given(graph_instances(), st.integers(0, 2**32 - 1))
    def test_matches_dense_solve_oracle(self, instance, seed):
        g, d, p = instance
        w = symmetric_normalize(g)
        oracle = dense_oracle(w, p)
        walk = Proximity(w=w, damping=p)  # the walk at any damping, not only up to 0.2
        rng = np.random.default_rng(seed)
        v = rng.random((g.n, 3))
        idx = rng.integers(0, g.n, size=rng.integers(1, g.n + 1))
        exact = Proximity(matrix=oracle)
        cred_oracle = estimate_credibility(d, exact)
        for q in (walk, walk.inverted()):
            assert np.abs(q.apply(v) - oracle @ v).max() <= 1e-8
            assert np.abs(q.rows(idx) - oracle[idx]).max() <= 1e-8
            cred = estimate_credibility(d, q)
            assert np.array_equal(cred.defined, cred_oracle.defined)
            bias = estimate_bias(d, q, cred)
            assert np.array_equal(bias.defined, estimate_bias(d, exact, cred_oracle).defined)
        # the cross-group block, also with one side empty; Q = I at p = 0
        for first in (d.groups == 0, np.ones(g.n, dtype=bool)):
            block = walk.cross_block(first)
            want = oracle[np.ix_(first, ~first)]
            assert block.shape == want.shape
            assert np.abs(block - want).max(initial=0.0) <= 1e-8
            assert np.array_equal(block > 0.0, want > 0.0)
            assert p > 0.0 or not block.any()

        cred = estimate_credibility(d, walk)
        bias = estimate_bias(d, walk, cred)
        # shares from solved rows, and from the inverse as `attribute` reads them
        for rows_of in (walk, walk.inverted()):
            for i in np.flatnonzero(bias.defined):
                total = sum(e.contribution for e in bias_contributions(d, rows_of, cred, i, d.n))
                assert abs(total - bias.values[i]) <= 1e-10

    def test_path_reaches_the_far_group(self):
        # Groups at opposite ends of a 40-vertex path: the other group lies
        # up to 39 steps away, where Q is below 1e-30. Stopping on an
        # absolute update alone leaves those entries at exactly 0.
        n = 40
        g = graph_from_dense(np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool))
        groups = (np.arange(n) >= n // 2).astype(int)
        v = np.zeros((n, 2))
        v[np.arange(n), groups] = 1.0
        w = symmetric_normalize(g)
        mass = rwr_proximity(w, damping=0.1).apply(v)
        assert (mass[np.arange(n), 1 - groups] > 0).sum() == n
        oracle = dense_oracle(w, 0.1) @ v
        assert (oracle[np.arange(n), 1 - groups] > 0).sum() == n

    @pytest.mark.parametrize("n, p", [(16, 0.1), (40, 0.5), (40, 0.9)])
    def test_far_evidence_decomposes_exactly(self, n, p):
        # The only other-group samples sit at the far end of a path, so most
        # biases are ratios of entries far below their row's largest: these
        # must be accurate in themselves, not just next to the diagonal.
        g = graph_from_dense(np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool))
        groups = np.zeros(n, int)
        groups[-2:] = 1
        labels = np.zeros(n, int)
        labels[1::3] = 1
        labels[-1] = 1
        d = make_dataset(np.zeros(n), [], labels, groups)
        q = Proximity(w=symmetric_normalize(g), damping=p)  # the walk, also above 0.2
        cred = estimate_credibility(d, q)
        bias = estimate_bias(d, q, cred)
        assert bias.defined.all()
        for rows_of in (q, q.inverted()):
            for i in range(n):
                total = sum(e.contribution for e in bias_contributions(d, rows_of, cred, i, n))
                assert abs(total - bias.values[i]) <= 1e-10
        # every share from the cross-group block, and as `attribute` reports them
        # (x = i / 64 with t_r = 1 / 64, exact in binary, builds the same path)
        report = attribute(make_dataset(np.arange(n) / 64, [], labels, groups),
                           ComparabilityConfig(1 / 64, 0), damping=p, top_k=n)
        assert np.array_equal(report.bias.defined, bias.defined)
        assert np.abs(report.bias.values - bias.values).max() <= 1e-10
        for (rows, _, share, *_), values in (
                (_explanations(d, q, cred, np.arange(n), n, block=True)[1], bias.values),
                (report.explained, report.bias.values)):
            assert np.abs(np.bincount(rows, weights=share, minlength=n) - values).max() <= 1e-10

    def test_signed_apply_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        w = symmetric_normalize(random_graph(rng, 50, 0.08))
        q = Proximity(w=w, damping=0.5)  # the walk
        v = rng.random((50, 3))
        v -= v.mean(axis=0)  # centred: every column signed
        assert np.abs(q.apply(v) - dense_oracle(w, 0.5) @ v).max() <= 1e-8
        for bad in (np.nan, np.inf):
            v[3, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                q.apply(v)

    def test_walk_only_up_to_the_damping_threshold(self, monkeypatch):
        # Above p = 0.2 the walk needs more steps than one inversion is worth,
        # up to about 1/(1 - p) as p nears 1, so Q is inverted once instead;
        # at or below it nothing is inverted.
        rng = np.random.default_rng(12)
        w = symmetric_normalize(random_graph(rng, 40, 0.1))
        v = rng.random((40, 4))
        for p, kind in ((0.0, "_inverse"), (0.2, "_inverse"), (0.3, "_walk"), (0.99, "_walk")):
            oracle = dense_oracle(w, p)
            with monkeypatch.context() as patch:
                patch.setattr(similarity, kind, refuse)
                q = rwr_proximity(w, damping=p)
                assert np.abs(q.apply(v) - oracle @ v).max() <= 1e-8
                assert np.abs(q.rows([0, 7]) - oracle[[0, 7]]).max() <= 1e-8

    @settings(max_examples=150, deadline=None)
    @given(graph_instances(), st.integers(1, 6))
    def test_largest_entries_rank_as_the_oracle(self, instance, k):
        # `entrywise=False` stops early. The mixup neighbour ranking reads the
        # k largest entries of a row within one (group, label) cell, here often
        # far away: they must come out as the dense solve's. (Near-ties among
        # entries ~1e-13 of the row's largest can still swap, on longer paths.)
        g, d, p = instance
        w = symmetric_normalize(g)
        oracle = dense_oracle(w, p)
        rows = Proximity(w=w, damping=p).rows(np.arange(g.n), entrywise=False)
        for i, (got, want) in enumerate(zip(rows, oracle)):
            cell = (d.groups == d.groups[i]) & (d.labels == d.labels[i])
            cell[i] = False
            nbrs = np.flatnonzero(cell & (got > 0.0))
            top = nbrs[np.lexsort((nbrs, -got[nbrs]))][:k]
            best = np.sort(want[cell & (want > 0.0)])[::-1][:k]
            assert len(top) == len(best)
            assert np.allclose(want[top], best, rtol=1e-9, atol=0.0)

    def test_csr_row_blocks_pad_within_the_budget(self, monkeypatch):
        # A budget of 28 makes blocks of at most 7 entries: several narrow
        # rows share one, each padded to the block's widest. The same entries
        # with each row's columns stored in reverse give the same blocks.
        rng = np.random.default_rng(4)
        n = 12
        upper = np.triu(rng.random((n, n)) < 0.3, k=1)
        m = np.where(upper | upper.T, rng.random((n, n)), 0.0)
        m = (m + m.T) / 2
        scale = rng.random(n) + 0.5
        first = np.arange(n) % 2 == 0
        csr = sparse.csr_matrix(m)
        flipped = [np.arange(b - 1, a - 1, -1) for a, b in zip(csr.indptr[:-1], csr.indptr[1:])]
        order = np.concatenate(flipped).astype(int)
        unsorted = sparse.csr_matrix((csr.data[order], csr.indices[order], csr.indptr), shape=(n, n))
        assert not unsorted.has_sorted_indices
        monkeypatch.setattr(similarity, "_BLOCK_ENTRIES", 28)
        rows = np.arange(n)
        blocks, again = (list(Proximity(matrix=a, scale=scale).other_group_rows(first, rows))
                         for a in (csr, unsorted))
        stored = np.flatnonzero(np.diff(csr.indptr))
        assert sorted(np.concatenate([r for r, _, _ in blocks]).tolist()) == stored.tolist()
        assert any(1 < len(r) < len(stored) for r, _, _ in blocks)
        want = np.where(first[:, None] != first[None, :], m * scale[:, None], 0.0)
        for (r, col, sim), (r2, col2, sim2) in zip(blocks, again, strict=True):
            assert len(r) == 1 or sim.size <= 7
            assert col.shape == sim.shape == (len(r), np.diff(csr.indptr)[r].max())
            got = np.zeros((len(r), n))
            np.add.at(got, (np.arange(len(r))[:, None], col), sim)
            assert np.array_equal(got, want[r])
            for j, i in enumerate(r):
                width = csr.indptr[i + 1] - csr.indptr[i]
                assert np.all(np.diff(col[j, :width]) > 0) and not sim[j, width:].any()
            for a, b in zip((r, col, sim), (r2, col2, sim2)):
                assert np.array_equal(a, b)
