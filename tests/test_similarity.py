import tracemalloc

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
    StoredProximity,
    WalkProximity,
    adjacency_similarity,
    rwr_proximity,
    symmetric_normalize,
)
from biasaudit.synth import SynthConfig, generate_base

from util import dense_oracle, make_dataset, random_dataset


def graph_from_dense(dense):
    return ComparabilityGraph(sparse.csr_matrix(np.asarray(dense, dtype=bool)))


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

    def test_fills_w_in_row_blocks_beside_its_data(self):
        # 2.2 M entries: the traced peak is W's data plus one row block's repeated
        # s_i (8 bytes an entry) and a few n-long arrays for s, where repeating s_i
        # for all rows at once would add 8 bytes an entry, and gathering s_j beside
        # it 8 more. Each entry is still the one product s_i * s_j.
        rng = np.random.default_rng(5)
        n, offsets = 40_000, np.arange(1, 41)
        i = np.repeat(np.arange(n), len(offsets))
        j = i + np.tile(offsets, n)
        keep = (j < n) & (rng.random(len(i)) < 0.7) & (i % 997 != 0)  # some isolated
        upper = sparse.csr_matrix((np.ones(keep.sum(), dtype=bool), (i[keep], j[keep])),
                                  shape=(n, n))
        g = ComparabilityGraph((upper + upper.T).tocsr())
        a = g.adjacency
        assert a.nnz >= 2_000_000 and (g.degree == 0).any()
        del i, j, keep, upper
        tracemalloc.start()
        try:
            w = symmetric_normalize(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= w.data.nbytes + 8 * similarity._W_BLOCK + 64 * n
        s = np.zeros(n)
        s[g.degree > 0] = 1.0 / np.sqrt(g.degree[g.degree > 0])
        assert np.shares_memory(w.indices, a.indices) and np.shares_memory(w.indptr, a.indptr)
        assert np.array_equal(w.data, np.repeat(s, np.diff(a.indptr)) * s[a.indices])


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
        assert np.abs(q - dense_oracle(w, p)).max() < 1e-10

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
            assert np.abs(q - dense_oracle(w, p)).max() < 1e-8

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

    def test_keeps_the_graph_csr_boolean(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 40, 0.1)
        m = adjacency_similarity(g).matrix
        assert g.adjacency.dtype == m.dtype == bool
        for a, b in ((m.indptr, g.adjacency.indptr), (m.indices, g.adjacency.indices),
                     (m.data, g.adjacency.data)):
            assert np.shares_memory(a, b)

    def test_row_factor_is_the_inverse_degree(self):
        # The factor a boolean CSR derives from its indptr has the bits of
        # 1/degree as np.divide gives it, 0 for an isolated vertex; a float CSR
        # is Q itself.
        small = graph_from_dense([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]])
        rng = np.random.default_rng(6)
        for g in (small, random_graph(rng, 40, 0.15)):
            want = np.divide(1.0, g.degree, out=np.zeros(g.n), where=g.degree > 0)
            got = adjacency_similarity(g)._scale
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert np.array_equal(StoredProximity(g.adjacency.astype(float))._scale, np.ones(g.n))

    @pytest.mark.parametrize("blocked", [False, True])
    def test_boolean_csr_reads_as_its_float64_copy(self, monkeypatch, blocked):
        # The graph's bool CSR, read as D^-1 A, and D^-1 A stored as float64
        # give the same bits from `rows`, `nearest` and `other_group_rows`;
        # `apply` leaves the bool one's row factor out. At the default budget
        # `apply` runs in one row block; with a budget of 5 stored entries it
        # runs in several, rows wider than 5 each one block alone, and either
        # way equals one whole-matrix product.
        rng = np.random.default_rng(6)
        g = random_graph(rng, 40, 0.15)
        a, widths = g.adjacency, np.diff(g.adjacency.indptr)
        assert widths.max() > 5 and (widths < 5).any()
        inv_deg = np.divide(1.0, g.degree, out=np.zeros(g.n), where=g.degree > 0)
        scaled = sparse.csr_matrix((np.repeat(inv_deg, widths), a.indices, a.indptr), shape=a.shape)
        as_bool, as_float = StoredProximity(a), StoredProximity(scaled)
        assert as_bool.matrix.dtype == bool and as_float.matrix.dtype == np.float64
        if blocked:
            monkeypatch.setattr(similarity, "_BLOCK_ENTRIES", 5)
        budget = similarity._BLOCK_ENTRIES
        blocks = list(similarity._row_blocks(g.adjacency.indptr, budget))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == g.n and len(blocks) < g.n
        assert (len(blocks) > 1) == blocked
        for lo, hi in blocks:
            assert hi - lo == 1 or widths[lo:hi].sum() <= budget
        v = rng.random((g.n, 4))
        first = np.arange(g.n) % 3 == 0
        mask = rng.random(g.n) < 0.5
        idx = rng.integers(0, g.n, 15)
        for q, stored in ((as_bool, a.astype(float)), (as_float, scaled)):
            whole = stored @ v
            assert np.array_equal(q.apply(v), whole)
            assert np.array_equal(q.apply(v[:, 0]), whole[:, 0])
            rows = q.rows(idx)
            assert rows.dtype == np.float64
            assert np.array_equal(rows, as_float.rows(idx))
            for i in range(g.n):
                assert np.array_equal(q.nearest(i, mask, 3), as_float.nearest(i, mask, 3))
            for got, want in zip(q.other_group_rows(first, np.arange(g.n)),
                                 as_float.other_group_rows(first, np.arange(g.n)), strict=True):
                for x, y in zip(got, want):
                    assert x.dtype == y.dtype and np.array_equal(x, y)


def test_pipeline_from_comparability_graph():
    d = make_dataset([0.0, 0.1, 0.2], [], [1, 0, 1], [0, 0, 0])
    g = build_comparability_graph(d, ComparabilityConfig(0.1, 2))
    q = full(rwr_proximity(symmetric_normalize(g), damping=0.5))
    assert q[0, 0] == pytest.approx(7 / 12, abs=1e-12)


@st.composite
def graph_instances(draw, kinds=("isolated", "path", "random")):
    """A graph of components of the given kinds (isolated vertices, paths,
    random blocks, stars, geometric graphs), shuffled so the components
    interleave, with random groups, labels and damping."""
    blocks = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "isolated":
            blocks.append(np.zeros((1, 1), dtype=bool))
        elif kind == "path":
            size = draw(st.integers(2, 12))
            blocks.append(np.eye(size, k=1, dtype=bool) | np.eye(size, k=-1, dtype=bool))
        elif kind == "star":
            size = draw(st.integers(2, 10))
            star = np.zeros((size, size), dtype=bool)
            star[0, 1:] = star[1:, 0] = True
            blocks.append(star)
        elif kind == "geometric":  # points in the unit square, linked within a radius
            size = draw(st.integers(2, 12))
            xy = np.array(draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                                        min_size=size, max_size=size)))
            near = np.hypot(*(xy[:, None, :] - xy[None, :, :]).T) <= draw(st.floats(0.2, 0.7))
            blocks.append(near & ~np.eye(size, dtype=bool))
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
        walk = rwr_proximity(w, damping=p)  # the walk, at every damping
        rng = np.random.default_rng(seed)
        v = rng.random((g.n, 3))
        idx = rng.integers(0, g.n, size=rng.integers(1, g.n + 1))
        exact = StoredProximity(sparse.csr_matrix(oracle))
        cred_oracle = estimate_credibility(d, exact)
        assert np.abs(walk.apply(v) - oracle @ v).max() <= 1e-8
        assert np.abs(walk.rows(idx) - oracle[idx]).max() <= 1e-8
        cred = estimate_credibility(d, walk)
        assert np.array_equal(cred.defined, cred_oracle.defined)
        bias = estimate_bias(d, walk, cred)
        assert np.array_equal(bias.defined, estimate_bias(d, exact, cred_oracle).defined)
        # the cross-group block, also with one side empty; Q = I at p = 0
        for first in (d.groups == 0, np.ones(g.n, dtype=bool)):
            block = similarity._cross_block(w, p, first)
            want = oracle[np.ix_(first, ~first)]
            assert block.shape == want.shape
            assert np.abs(block - want).max(initial=0.0) <= 1e-8
            assert np.array_equal(block > 0.0, want > 0.0)
            assert p > 0.0 or not block.any()

        # shares from solved rows, and from the oracle's rows
        for rows_of in (walk, exact):
            for i in np.flatnonzero(bias.defined):
                total = sum(e.contribution for e in bias_contributions(d, rows_of, cred, i, d.n))
                assert abs(total - bias.values[i]) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(graph_instances(), st.integers(0, 2**32 - 1))
    def test_walk_stops_where_a_support_count_would(self, instance, seed):
        # The former rule also waited for the number of positive entries to stop
        # changing. As W >= 0 and B >= 0 the iterates rise entrywise, also in
        # floating point, so a newly positive entry's update is all of it and
        # already fails the entrywise test: same stop step, same bits.
        g, _, p = instance

        def with_support_count(w, b):
            b = (1.0 - p) * b
            x, support, steps = b, np.count_nonzero(b), 0
            while True:
                nxt, steps = b + p * (w @ x), steps + 1
                grown = np.count_nonzero(nxt)
                if grown == support and (nxt - x <= similarity._TOL * nxt).all():
                    return nxt, steps
                x, support = nxt, grown

        class Counted:
            steps = 0

            def __matmul__(self, x):
                self.steps += 1
                return w @ x

        w = symmetric_normalize(g)
        rng = np.random.default_rng(seed)
        for b in (np.eye(g.n)[:, rng.integers(0, g.n, 2)],
                  np.where(rng.random((g.n, 2)) < 0.3, rng.random((g.n, 2)), 0.0)):
            counted = Counted()
            got = similarity._walk(counted, p, b)
            want, steps = with_support_count(w, b)
            assert counted.steps == steps and np.array_equal(got, want)

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
        w = symmetric_normalize(g)
        q = rwr_proximity(w, damping=p)  # the walk, at every damping
        cred = estimate_credibility(d, q)
        bias = estimate_bias(d, q, cred)
        assert bias.defined.all()
        for rows_of in (q, StoredProximity(sparse.csr_matrix(dense_oracle(w, p)))):
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
                (_explanations(d, q, cred, np.arange(n), n)[1], bias.values),
                (report.explained, report.bias.values)):
            assert np.abs(np.bincount(rows, weights=share, minlength=n) - values).max() <= 1e-10

    def test_apply_rejects_signed_and_non_finite_v(self):
        # Every storage takes only the finite, non-negative V the estimates
        # build, and the walk's fixed point relies on it.
        rng = np.random.default_rng(11)
        w = symmetric_normalize(random_graph(rng, 50, 0.08))
        stored = dense_oracle(w, 0.5)
        zero_one = stored > 0.01
        for q, want in ((WalkProximity(w, 0.5), stored),
                        (StoredProximity(sparse.csr_matrix(stored)), stored),
                        (StoredProximity(sparse.csr_matrix(zero_one)), zero_one)):
            v = rng.random((50, 3))
            assert np.abs(q.apply(v) - want @ v).max() <= 1e-8
            for bad in (-1e-300, -1.0, np.nan, np.inf, -np.inf):
                signed = v.copy()
                signed[3, 1] = bad
                with pytest.raises(ValueError, match="finite and non-negative"):
                    q.apply(signed)

    def test_walk_at_every_damping(self):
        # One regime: the walk solves Q @ V and rows at every damping, also
        # near 1, where it takes thousands of steps.
        rng = np.random.default_rng(12)
        w = symmetric_normalize(random_graph(rng, 40, 0.1))
        v = rng.random((40, 4))
        for p in (0.0, 0.2, 0.3, 0.9, 0.99):
            oracle = dense_oracle(w, p)
            q = rwr_proximity(w, damping=p)
            assert isinstance(q, WalkProximity) and q.damping == p
            assert np.abs(q.apply(v) - oracle @ v).max() <= 1e-8
            assert np.abs(q.rows([0, 7]) - oracle[[0, 7]]).max() <= 1e-8

    @settings(max_examples=150, deadline=None)
    @given(graph_instances(), st.integers(1, 6))
    def test_largest_entries_rank_as_the_oracle(self, instance, k):
        # The mixup neighbour ranking reads the k largest entries of a row
        # within one (group, label) cell, here often far away: they must come
        # out as the dense solve's.
        g, d, p = instance
        w = symmetric_normalize(g)
        oracle = dense_oracle(w, p)
        q = WalkProximity(w, p)
        for i, want in enumerate(oracle):
            cell = (d.groups == d.groups[i]) & (d.labels == d.labels[i])
            top = q.nearest(i, cell, k)
            cell[i] = False
            best = np.sort(want[cell & (want > 0.0)])[::-1][:k]
            assert len(top) == len(best)
            assert np.allclose(want[top], best, rtol=1e-9, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(graph_instances(("isolated", "path", "random", "star", "geometric")),
           st.sampled_from([("walk", p) for p in (0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9)]
                           + [("adjacency", None)]),
           st.integers(1, 6), st.data())
    def test_nearest_ranks_as_the_dense_inverse(self, instance, storage, k, data):
        # Each storage's `nearest` against the order of an exact dense Q: the
        # walk, at every damping, and the adjacency CSR with its 1/degree
        # `scale`. Cells are random masks, so some hold at most k candidates,
        # and isolated seeds have none.
        g, _, _ = instance
        kind, p = storage
        w = symmetric_normalize(g)
        if kind == "adjacency":
            q = adjacency_similarity(g)
            oracle = g.adjacency.toarray() / np.maximum(g.degree, 1)[:, None]
        else:
            q = rwr_proximity(w, damping=p)
            oracle = dense_oracle(w, p)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
        for i, want in enumerate(oracle):
            top = q.nearest(i, mask, k)
            assert len(set(top.tolist())) == len(top) and i not in top and mask[top].all()
            cell = mask.copy()
            cell[i] = False
            best = np.sort(want[cell & (want > 0.0)])[::-1][:k]
            assert len(top) == len(best)
            assert np.allclose(want[top], best, rtol=1e-9, atol=0.0)

    def test_nearest_bounds_the_walk_beyond_its_steps(self):
        # From vertex 4, neighbour 0 leads after one step (W[4, 0] > W[4, 1]),
        # but 1 gathers more over the two-step paths 4-0-1, 4-3-1 and 4-5-1.
        # Only the tail bound keeps the walk going until 1 is proven first.
        dense = np.zeros((6, 6), dtype=bool)
        for a, b in [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5)]:
            dense[a, b] = dense[b, a] = True
        w = symmetric_normalize(graph_from_dense(dense))
        oracle = dense_oracle(w, 0.2)
        assert w[4, 0] > w[4, 1] and oracle[4, 1] > oracle[4, 0] > oracle[4, 2] > 0.0
        q = rwr_proximity(w, damping=0.2)
        cell = np.isin(np.arange(6), [0, 1, 2])
        assert q.nearest(4, cell, 1).tolist() == [1]
        assert q.nearest(4, cell, 3).tolist() == [1, 0, 2]

    def test_nearest_ranks_far_near_ties_on_a_path(self):
        # Vertex 15 of a 30-vertex path, the cell all vertices at least 10 hops
        # away: entries 1e-13 of the row's largest and below, whose true relative
        # gaps (4e-11, 1.6e-8) no certificate with its rounding slack can prove.
        # The list then comes from the row walked until every entry has settled.
        n = 30
        line = np.zeros((n, n), dtype=bool)
        line[np.arange(n - 1), np.arange(1, n)] = True
        w = symmetric_normalize(graph_from_dense(line | line.T))
        oracle = dense_oracle(w, 0.1)[15]
        cell = np.abs(np.arange(n) - 15) >= 10
        want = np.flatnonzero(cell)[np.argsort(-oracle[cell], kind="stable")][:5]
        assert want.tolist() == [25, 5, 26, 4, 27]
        assert rwr_proximity(w, damping=0.1).nearest(15, cell, 5).tolist() == want.tolist()

    def test_nearest_settles_a_list_of_every_candidate(self, monkeypatch):
        # With k at least the cell size no certificate is tried: the list is
        # ranked on the row walked until every entry has settled, the row
        # `rows([i])` gives, with and without twins. Vertex 1 is made a twin of
        # vertex 0 (the same neighbours), so their entries tie exactly in every
        # other row, and those lists break the tie by index. A candidate reached
        # late still makes the list: on a path from vertex 0, vertex 4 is in it.
        matmul, steps = sparse.csr_matrix.__matmul__, [0]

        def counted(self, other):
            steps[0] += 1
            return matmul(self, other)

        def refused(*args):
            raise AssertionError("a list of every candidate needs no certificate")

        monkeypatch.setattr(sparse.csr_matrix, "__matmul__", counted)
        monkeypatch.setattr(similarity, "_certified", refused)
        line = np.eye(5, k=1, dtype=bool)
        path = rwr_proximity(symmetric_normalize(graph_from_dense(line | line.T)), damping=0.1)
        assert path.nearest(0, np.isin(np.arange(5), [1, 4]), 2).tolist() == [1, 4]
        rng = np.random.default_rng(0)
        dense = random_graph(rng, 80, 0.15).adjacency.toarray()
        cell = rng.random(80) < 0.2
        for twins in (False, True):
            if twins:
                dense[1, 2:] = dense[2:, 1] = dense[0, 2:]
                cell[:2] = True
            q = rwr_proximity(symmetric_normalize(graph_from_dense(dense)), damping=0.1)
            cand = np.flatnonzero(cell)
            k = len(cand) - 1  # every candidate but i itself
            for i in cand:
                steps[0] = 0
                top = q.nearest(i, cell, k)
                walked, steps[0] = steps[0], 0
                row = q.rows([i])[0]
                assert walked == steps[0] == 18
                settled = sorted((j for j in cand if j != i and row[j] > 0),
                                 key=lambda j: (-row[j], j))[:k]
                assert top.tolist() == settled
                assert len(top) == k

    def test_nearest_rejects_a_negative_k_and_an_index_outside_n(self):
        # Every storage: k = 0 ranks nothing, a negative k does not slice from
        # the end, a negative i does not wrap to the last row, and a mask of
        # another length neither ranks a prefix of the rows nor indexes past them.
        d = generate_base(SynthConfig(n_per_group=100, seed=1))
        g = build_comparability_graph(d, ComparabilityConfig(0.1, 2))
        w = symmetric_normalize(g)
        mask = np.ones(g.n, dtype=bool)
        for q in (rwr_proximity(w, damping=0.1), rwr_proximity(w, damping=0.5),
                  adjacency_similarity(g)):
            assert len(q.nearest(0, mask, 3)) == 3
            assert q.nearest(0, mask, 0).tolist() == []
            with pytest.raises(ValueError):
                q.nearest(0, mask, -1)
            for i in (-1, g.n):
                with pytest.raises(IndexError):
                    q.nearest(i, mask, 3)
            for m in (50, 300):
                with pytest.raises(ValueError, match="mask over"):
                    q.nearest(0, np.ones(m, dtype=bool), 3)

    def test_nearest_refuses_a_bool_or_float_index(self):
        # True is not row 1 and 1.9 is not truncated to row 1, under the walk
        # and a stored CSR alike; numpy signed and unsigned ints are rows
        d = generate_base(SynthConfig(n_per_group=100, seed=1))
        g = build_comparability_graph(d, ComparabilityConfig(0.1, 2))
        mask = np.ones(g.n, dtype=bool)
        for q in (rwr_proximity(symmetric_normalize(g), damping=0.1), adjacency_similarity(g)):
            for bad in (True, 1.9, np.float32(1.0)):
                with pytest.raises(IndexError, match=f"sample index {bad} is a"):
                    q.nearest(bad, mask, 3)
            for i in (np.int16(1), np.uint32(1), np.uint64(1)):
                assert q.nearest(i, mask, 3).tolist() == q.nearest(1, mask, 3).tolist()

    def test_rows_reject_an_index_outside_n(self):
        # Under the walk and a stored CSR alike, -1 does not wrap to the last
        # row and n does not reach numpy's own message: both name the index.
        w = symmetric_normalize(PATH3)
        for q in (rwr_proximity(w, damping=0.1), adjacency_similarity(PATH3),
                  StoredProximity(sparse.csr_matrix(dense_oracle(w, 0.5)))):
            assert q.rows([0, 2]).shape == (2, 3) and q.rows([]).shape == (0, 3)
            for bad in (-1, 3):
                with pytest.raises(IndexError, match=f"sample index {bad} out of range for 3"):
                    q.rows([0, bad])

    def test_a_stored_q_is_a_sparse_matrix(self):
        # A stored Q is a canonical boolean or float64 CSR, taken as given:
        # a dense array, another format or dtype, or columns out of order or
        # twice in a row are refused, not converted.
        csr = sparse.csr_matrix(np.eye(3))
        reversed_columns = sparse.csr_matrix(
            ([1.0, 2.0], [1, 0], [0, 2, 2, 2]), shape=(3, 3))
        duplicate = sparse.csr_matrix(([1.0, 2.0], [1, 1], [0, 2, 2, 2]), shape=(3, 3))
        assert StoredProximity(csr).matrix is csr
        for bad in (np.eye(3), csr.tocoo(), csr.tocsc(), csr.astype(np.int64),
                    csr.astype(np.float32), reversed_columns, duplicate):
            with pytest.raises(TypeError, match="canonical boolean or float64 CSR"):
                StoredProximity(bad)

    @pytest.mark.parametrize("make, error", [
        (lambda w: WalkProximity(w, 1.0), ValueError),  # Q = 0
        (lambda w: WalkProximity(w, -0.5), ValueError),  # rows summing to 0.75
        (lambda w: WalkProximity(w, float("nan")), ValueError),
        (lambda w: WalkProximity(), TypeError),
        (lambda w: StoredProximity(), TypeError),
        (lambda w: StoredProximity(w, w=w), TypeError),
        (lambda w: WalkProximity(w, 0.1, scale=np.ones(3)), TypeError),
        (lambda w: StoredProximity(w, scale=np.ones(3)), TypeError),
        (lambda w: WalkProximity(w, 0.1).rows([1.7]), IndexError),  # not Q[1]
        (lambda w: StoredProximity(w).rows(np.array([True])), IndexError),
    ], ids=["damping-1", "damping-negative", "damping-nan", "empty", "stored-empty",
            "matrix-and-w", "walk-with-scale", "stored-with-scale", "float-row", "bool-row"])
    def test_an_ill_formed_operator_is_refused(self, make, error):
        # Q is a stored matrix or the walk at a damping in [0, 1), with no
        # other field, and rows are read at integer indices only: anything
        # else fails where it is made.
        with pytest.raises(error):
            make(symmetric_normalize(PATH3))

    def test_no_damping_allocates_n_by_n(self):
        # The estimates and a one-row explanation at p = 0.9 hold O(edges + n)
        # memory (the graph build's blocks peak at about 2.5 MB here); one
        # n x n float array alone would be n^2 * 8 = 8 MB.
        from scipy import linalg  # noqa: F401  (its first import would count ~2 MB)

        d = generate_base(SynthConfig(n_per_group=500, seed=2))
        cfg = ComparabilityConfig(0.1, 2)
        square = d.n ** 2 * 8
        tracemalloc.start()
        try:
            report = attribute(d, cfg, damping=0.9, top_k=0)
            estimates_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            i = int(np.flatnonzero(report.bias.defined)[0])
            bias_contributions(d, report.similarity, report.credibility, i, 5)
            row_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimates_peak < square / 2 and row_peak < square / 2

    @pytest.mark.parametrize("m0, m1, flip", [(400, 400, False), (500, 300, False),
                                              (500, 300, True), (1000, 1000, False)])
    def test_cross_block_peaks_at_z_and_one_packed_factor(self, m0, m1, flip):
        # The block Z (m0 x m1) and one packed buffer for the larger side's
        # triangle (m0 (m0 + 1) / 2 doubles, m0 >= m1) are the peak, within 5%:
        # Z is written from W's stored rows in blocks, not from a sliced copy,
        # L, S and K take turns in the one buffer, and no triangle is ever held
        # as a square (an m0 x m0 array would break the bound). `first` is
        # eliminated as given, also when it is the smaller side.
        from scipy import linalg  # noqa: F401  (its first import would count ~2 MB)

        rng = np.random.default_rng(0)
        n = m0 + m1
        groups = np.r_[np.zeros(m0, dtype=int), np.ones(m1, dtype=int)]
        d = make_dataset(rng.random((n, 2)), [], rng.integers(0, 2, n), groups)
        w = symmetric_normalize(build_comparability_graph(d, ComparabilityConfig(0.1, 2)))
        first = groups == (1 if flip else 0)
        tracemalloc.start()
        try:
            block = similarity._cross_block(w, 0.1, first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == ((m1, m0) if flip else (m0, m1))
        assert peak <= 1.05 * (m0 * m1 + m0 * (m0 + 1) / 2) * 8

    @pytest.mark.parametrize("first_is_larger", [True, False])
    def test_cross_block_eliminates_first_as_given(self, monkeypatch, first_is_larger):
        # 30 + 10 vertices: the block matches the dense solve with `first` the
        # larger side and with it the smaller, in one call, with no recursion
        # into the other order.
        cross_block, calls = similarity._cross_block, []

        def counted(*args):
            calls.append(1)
            return cross_block(*args)

        monkeypatch.setattr(similarity, "_cross_block", counted)
        w = symmetric_normalize(random_graph(np.random.default_rng(7), 40, 0.15))
        first = (np.arange(40) < 30) == first_is_larger
        block = similarity._cross_block(w, 0.1, first)
        want = dense_oracle(w, 0.1)[np.ix_(first, ~first)]
        assert block.shape == want.shape == ((30, 10) if first_is_larger else (10, 30))
        assert np.abs(block - want).max() <= 1e-12 and (want > 0.0).any()
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 7, 64, 65])
    def test_packed_block_is_the_lower_triangle_of_i_minus_pw(self, m):
        # Read back by LAPACK's own RFP-to-full conversion, the packed block
        # equals the dense one's lower triangle. The block is not symmetric, so
        # only its lower entries may be read; a few rows have none at all, some
        # have a stored diagonal, and at m = 64 and 65 the rows are placed in
        # several blocks. The triangle fills a prefix of a longer buffer, which
        # holds another one's entries beforehand, and leaves the rest as it was.
        from scipy.linalg import lapack

        rng = np.random.default_rng(m)
        dense = np.where(rng.random((m, m)) < 0.3, rng.random((m, m)), 0.0)
        dense[rng.random(m) < 0.2] = 0.0
        block = sparse.csr_matrix(dense)
        for p in (0.0, 0.1, 0.9):
            out = rng.random(m * (m + 1) // 2 + 5)
            rest = out[-5:].copy()
            packed = similarity._packed_eye_minus(block, np.arange(m), p, out)
            assert packed.shape == (m * (m + 1) // 2,) and np.shares_memory(packed, out)
            assert np.array_equal(out[-5:], rest)
            full_lower = np.tril(lapack.dtfttr(m, packed, transr="N", uplo="L")[0])
            assert np.array_equal(full_lower, np.tril(np.eye(m) - p * block.toarray()))

    def test_cross_block_rejects_an_indefinite_i_minus_pw(self, monkeypatch):
        # 2W has eigenvalue 2, so I - 0.9 (2W) is indefinite. The eliminated side
        # (group 0, the larger) is a 4-clique in the first graph, so its own
        # block already is; no edge stays within a group in the second, so only
        # the Schur complement is. Either factorization raises instead of solving.
        clique = np.zeros((6, 6), dtype=bool)
        clique[:4, :4] = ~np.eye(4, dtype=bool)
        clique[[0, 4, 1, 5], [4, 0, 5, 1]] = True
        bipartite = np.zeros((6, 6), dtype=bool)
        bipartite[:3, 3:] = bipartite[3:, :3] = True
        cholesky, calls = similarity._cholesky, []

        def counted(*args):
            calls.append(args[1])
            return cholesky(*args)

        monkeypatch.setattr(similarity, "_cholesky", counted)
        for dense, first, failing in ((clique, np.arange(6) < 4, [4]),
                                      (bipartite, np.arange(6) < 3, [3, 3])):
            calls.clear()
            w = 2.0 * symmetric_normalize(graph_from_dense(dense))
            with pytest.raises(ValueError, match="not positive definite"):
                similarity._cross_block(w, 0.9, first)
            assert calls == failing

    def test_csr_row_blocks_pad_within_the_budget(self, monkeypatch):
        # A budget of 28 makes blocks of at most 7 entries: several narrow
        # rows share one, each padded to the block's widest.
        rng = np.random.default_rng(4)
        n = 12
        upper = np.triu(rng.random((n, n)) < 0.3, k=1)
        m = np.where(upper | upper.T, rng.random((n, n)), 0.0)
        m = (m + m.T) / 2 * (rng.random(n) + 0.5)[:, None]
        first = np.arange(n) % 2 == 0
        csr = sparse.csr_matrix(m)
        monkeypatch.setattr(similarity, "_BLOCK_ENTRIES", 28)
        blocks = list(StoredProximity(csr).other_group_rows(first, np.arange(n)))
        stored = np.flatnonzero(np.diff(csr.indptr))
        assert sorted(np.concatenate([r for r, _, _ in blocks]).tolist()) == stored.tolist()
        assert any(1 < len(r) < len(stored) for r, _, _ in blocks)
        want = np.where(first[:, None] != first[None, :], m, 0.0)
        for r, col, sim in blocks:
            assert len(r) == 1 or sim.size <= 7
            assert col.shape == sim.shape == (len(r), np.diff(csr.indptr)[r].max())
            got = np.zeros((len(r), n))
            np.add.at(got, (np.arange(len(r))[:, None], col), sim)
            assert np.array_equal(got, want[r])
            for j, i in enumerate(r):
                width = csr.indptr[i + 1] - csr.indptr[i]
                assert np.all(np.diff(col[j, :width]) > 0) and not sim[j, width:].any()
