import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit import comparability
from biasaudit.comparability import (
    ComparabilityConfig,
    build_comparability_graph,
    is_comparable,
)

from util import make_dataset, random_dataset

CFG = ComparabilityConfig(t_r=0.1, t_d=2)

# fl(B - A) == 0.1, yet B > fl(A + 0.1) and fl(B - 0.1) > A: a window bound
# that adds or subtracts t_r on the sort key misses this pair.
A, B = 0.017872895843332494, 0.1178728958433325


def oracle_adjacency(d, cfg):
    """The inclusive predicate over all pairs at once, self-loops removed."""
    ok = np.ones((d.n, d.n), dtype=bool)
    for f in range(d.n_numerical):
        ok &= np.abs(d.numericals[:, f, None] - d.numericals[None, :, f]) <= cfg.t_r
    differing = (d.categoricals[:, None, :] != d.categoricals[None, :, :]).sum(axis=2)
    ok &= differing <= cfg.t_d
    np.fill_diagonal(ok, False)
    return ok


class TestIsComparable:
    def test_identical_vectors_always_comparable(self):
        num = np.array([0.2, 0.9])
        cat = np.array([1, 0, 3])
        for cfg in (CFG, ComparabilityConfig(1e-9, 0)):
            assert is_comparable(num, cat, num, cat, cfg)

    def test_numerical_threshold_exceeded(self):
        assert not is_comparable([0.0], [], [0.2], [], CFG)

    def test_threshold_is_inclusive(self):
        assert is_comparable([0.0], [], [0.1], [], CFG)
        assert is_comparable([0.0], [1], [0.0], [2], ComparabilityConfig(0.1, 1))
        assert not is_comparable([0.0], [1], [0.0], [2], ComparabilityConfig(0.1, 0))

    def test_categorical_count_against_threshold(self):
        # 3 of 5 categoricals differ: fails at t_d=2, passes at t_d=3
        num = np.zeros(2)
        cat_a = np.array([0, 1, 2, 3, 4])
        cat_b = np.array([9, 9, 9, 3, 4])
        assert not is_comparable(num, cat_a, num, cat_b, ComparabilityConfig(0.1, 2))
        assert is_comparable(num, cat_a, num, cat_b, ComparabilityConfig(0.1, 3))

    def test_schema_mismatch(self):
        with pytest.raises(ValueError, match="schema"):
            is_comparable([0.1], [], [0.1, 0.2], [], CFG)

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.random(3), rng.random(3)
            ca, cb = rng.integers(0, 3, 4), rng.integers(0, 3, 4)
            cfg = ComparabilityConfig(rng.uniform(0.05, 0.5), int(rng.integers(0, 5)))
            assert is_comparable(a, ca, b, cb, cfg) == is_comparable(b, cb, a, ca, cfg)


class TestBuildGraph:
    def test_identical_rows_complete_graph(self):
        d = make_dataset(np.full((5, 2), 0.3), np.ones((5, 1), dtype=int), np.zeros(5, dtype=int), np.ones(5, dtype=int))
        g = build_comparability_graph(d, CFG)
        assert np.array_equal(g.degree, np.full(5, 4))
        assert g.adjacency.diagonal().sum() == 0

    def test_gap_larger_than_threshold_empty_graph(self):
        d = make_dataset([0.0, 0.5, 1.0], [], [0, 1, 0], [0, 1, 0])
        g = build_comparability_graph(d, CFG)
        assert g.adjacency.nnz == 0
        assert np.array_equal(g.degree, np.zeros(3, dtype=int))

    def test_three_points_path_graph(self):
        d = make_dataset([0.0, 0.1, 0.2], [], [0, 1, 0], [0, 1, 0])
        g = build_comparability_graph(d, CFG)
        dense = g.adjacency.toarray()
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        assert np.array_equal(dense, expected)
        assert np.array_equal(g.degree, [1, 2, 1])

    def test_matches_pairwise_predicate(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 40, n_num=2, n_cat=2, n_levels=3)
        cfg = ComparabilityConfig(0.25, 1)
        g = build_comparability_graph(d, cfg)
        dense = g.adjacency.toarray()
        for i in range(d.n):
            for j in range(d.n):
                expected = i != j and is_comparable(
                    d.numericals[i], d.categoricals[i],
                    d.numericals[j], d.categoricals[j], cfg,
                )
                assert dense[i, j] == expected

    def test_symmetric_no_self_loops(self):
        rng = np.random.default_rng(4)
        d = random_dataset(rng, 60)
        g = build_comparability_graph(d, CFG)
        dense = g.adjacency.toarray()
        assert np.array_equal(dense, dense.T)
        assert not dense.diagonal().any()

    def test_matches_vectorized_oracle_across_blocks(self):
        # windows of hundreds of rows cross several blocks at the default
        # budget; grid values on the first feature put sort-key ties and
        # exact-threshold gaps on block edges
        rng = np.random.default_rng(5)
        numerical = random_dataset(rng, 1300, n_num=3, n_cat=1)
        grid = make_dataset(
            np.column_stack([rng.choice(np.arange(21) / 20, 1300), numerical.numericals[:, 1:]]),
            numerical.categoricals, numerical.labels, numerical.groups)
        categorical_only = random_dataset(rng, 1100, n_num=0, n_cat=3)
        for d, cfg in ((numerical, CFG), (grid, CFG), (categorical_only, ComparabilityConfig(0.1, 1))):
            expected = oracle_adjacency(d, cfg)
            assert expected.any() and not expected.all()
            got = build_comparability_graph(d, cfg)
            assert np.array_equal(got.adjacency.toarray(), expected)
            assert np.array_equal(got.degree, expected.sum(axis=1))

    def test_exact_threshold_pair_across_a_block_edge(self):
        # a budget of one entry puts a block edge between every two rows
        d = make_dataset(np.r_[np.zeros(5), A, B], [], np.zeros(7, dtype=int),
                         np.zeros(7, dtype=int))
        cfg = ComparabilityConfig(t_r=0.1, t_d=0)
        assert is_comparable([A], [], [B], [], cfg)
        with mock.patch.object(comparability, "_BLOCK_ENTRIES", 1):
            g = build_comparability_graph(d, cfg)
        assert g.adjacency[5, 6]
        assert np.array_equal(g.adjacency.toarray(), oracle_adjacency(d, cfg))

    @pytest.mark.parametrize("budget", [1, 7, comparability._BLOCK_ENTRIES])
    def test_padded_window_matches_oracle(self, budget):
        # The window bound is fl(key + t_r + pad). On grid keys with t_r at
        # an exact grid multiple, fl(key + t_r) can fall below a key whose
        # gap rounds to t_r: without the pad, arange(99) / 98 at t_r = 7 / 98
        # loses the pair (4, 11). Keys at the normalization bounds and t_r >= 1
        # cover both ends of the key range.
        edges = np.array([-1e-12, 0.0, 1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12])
        cases = [(np.repeat(np.arange(m + 1) / m, 2), k / m)
                 for m, k in ((98, 7), (98, 49), (20, 1), (20, 3), (10, 10), (7, 2))]
        cases += [(edges, t_r) for t_r in (1e-12, 0.1, 0.4, 1.0, 1.0 + 2e-12, 1.5)]
        cases += [(np.arange(11) / 10, 1.0), (np.arange(11) / 10, 3.0)]
        for key, t_r in cases:
            n = len(key)
            d = make_dataset(key, np.arange(n) % 2, np.zeros(n, dtype=int),
                             np.zeros(n, dtype=int))
            cfg = ComparabilityConfig(t_r=t_r, t_d=1)
            with mock.patch.object(comparability, "_BLOCK_ENTRIES", budget):
                g = build_comparability_graph(d, cfg)
            assert np.array_equal(g.adjacency.toarray(), oracle_adjacency(d, cfg)), (key, t_r)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_pairwise_oracle_at_any_block_size(self, data):
        # Grid values put ties and gaps at, just under and just over the
        # thresholds; tiny budgets put block edges at every offset.
        n = data.draw(st.integers(1, 20))
        n_r = data.draw(st.integers(0, 3))
        n_d = data.draw(st.integers(0 if n_r else 1, 3))  # a schema has a feature
        grid = st.sampled_from([0.0, A, 0.1, B, 0.2, 0.3, 0.4, 1.0])
        num = np.array(data.draw(st.lists(grid, min_size=n * n_r, max_size=n * n_r)))
        num = num.reshape(n, n_r)
        if n_r and data.draw(st.booleans()):
            num[:, 0] = 0.5
        cat = data.draw(st.lists(st.integers(0, 2), min_size=n * n_d, max_size=n * n_d))
        cat = np.array(cat, dtype=int).reshape(n, n_d)
        d = make_dataset(num, cat, np.zeros(n, dtype=int), np.zeros(n, dtype=int))
        cfg = ComparabilityConfig(data.draw(st.sampled_from([0.1, 0.3])),
                                  data.draw(st.integers(0, n_d + 1)))
        budget = data.draw(st.sampled_from([1, 3, 7, comparability._BLOCK_ENTRIES]))
        with mock.patch.object(comparability, "_BLOCK_ENTRIES", budget):
            g = build_comparability_graph(d, cfg)
        expected = np.array([[i != j and is_comparable(num[i], cat[i], num[j], cat[j], cfg)
                              for j in range(n)] for i in range(n)])
        assert np.array_equal(g.adjacency.toarray(), expected)
        assert g.adjacency.has_canonical_format and g.adjacency.indices.dtype == np.int32
        assert g.adjacency.dtype == bool
        assert np.array_equal(g.degree, expected.sum(axis=1))
        assert g.edge_count == expected.sum() // 2

    def test_heap_peak_follows_the_csr(self):
        # about 10**5 edges: the pair lists and their assembly stay within
        # 3x the final CSR, the sweep within its budget's temporaries (a
        # bool mask, two float differences, nonzero's int64 ids and their
        # shift: about 40 bytes an entry)
        rng = np.random.default_rng(8)
        n = 3000
        d = make_dataset(np.column_stack([rng.random(n), np.full(n, 0.5)]),
                         rng.integers(0, 3, (n, 1)), rng.integers(0, 2, n), rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            g = build_comparability_graph(d, ComparabilityConfig(0.012, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        a = g.adjacency
        csr_bytes = a.indptr.nbytes + a.indices.nbytes + a.data.nbytes
        assert 0.5e5 < g.edge_count < 2e5
        assert peak <= 3 * csr_bytes + 40 * comparability._BLOCK_ENTRIES

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, 50, n_num=2, n_cat=3)
        small = build_comparability_graph(d, ComparabilityConfig(0.1, 1)).adjacency.toarray()
        wider_r = build_comparability_graph(d, ComparabilityConfig(0.3, 1)).adjacency.toarray()
        wider_d = build_comparability_graph(d, ComparabilityConfig(0.1, 3)).adjacency.toarray()
        assert not (small & ~wider_r).any()
        assert not (small & ~wider_d).any()

    def test_unnormalized_input_rejected(self):
        d = make_dataset([0.0, 5.0], [], [0, 1], [0, 1])
        with pytest.raises(ValueError, match="normalized"):
            build_comparability_graph(d, CFG)

    def test_no_numericals(self):
        d = make_dataset(np.zeros((3, 0)), [[0], [0], [1]], [0, 1, 0], [0, 1, 0])
        g = build_comparability_graph(d, ComparabilityConfig(t_r=0.1, t_d=0))
        assert g.degree[0] == 1 and g.degree[2] == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ComparabilityConfig(t_r=0.0)
    with pytest.raises(ValueError):
        ComparabilityConfig(t_r=0.1, t_d=-1)
