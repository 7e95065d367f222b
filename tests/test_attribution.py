import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from biasaudit.attribution import (
    BiasReport,
    Estimate,
    Explanation,
    UndefinedBiasError,
    _explanations,
    _k_best,
    attribute,
    bias_contributions,
    estimate_bias,
    estimate_credibility,
)
from biasaudit import attribution
from biasaudit import similarity as similarity_module
from biasaudit.comparability import ComparabilityConfig, ComparabilityGraph, build_comparability_graph
from biasaudit.similarity import StoredProximity, WalkProximity, adjacency_similarity, symmetric_normalize
from biasaudit.synth import SynthConfig, generate_base, inject_individual_bias

from util import estimate_of, grid_argmin, make_dataset, random_dataset, random_instance


def sim(matrix):
    """A stored Q with the given entries, as a float CSR."""
    return StoredProximity(sparse.csr_matrix(matrix, dtype=float))


def path3_dataset(labels, groups):
    return make_dataset([0.0, 0.1, 0.2], [], labels, groups)


# Q of the 1-2-3 path graph at damping 0.5, from the hand inversion
A = 1 / (3 * np.sqrt(2))
Q_PATH = np.array([
    [7 / 12, A, 1 / 12],
    [A, 2 / 3, A],
    [1 / 12, A, 7 / 12],
])


class TestEstimate:
    def test_defined_is_derived_from_the_values(self):
        # NaN is the one mark of an undefined entry; no flag can disagree with it
        e = Estimate([0.25, np.nan, 1.0])
        assert e.defined.tolist() == [True, False, True]
        with pytest.raises(TypeError):
            Estimate(values=np.ones(5), defined=[True])
        for shape in ((), (2, 3)):
            with pytest.raises(ValueError, match="1-D"):
                Estimate(np.ones(shape))


class TestCredibility:
    def test_agreeing_neighbors_give_one(self):
        d = path3_dataset([1, 1, 1], [0, 0, 0])
        c = estimate_credibility(d, sim(Q_PATH))
        assert np.allclose(c.values, 1.0)

    def test_path_graph_hand_value(self):
        d = path3_dataset([1, 0, 1], [0, 0, 0])
        c = estimate_credibility(d, sim(Q_PATH))
        assert c.values[0] == pytest.approx(0.7387961250362586, abs=1e-10)

    def test_isolated_vertex_credibility_one(self):
        # only self-evidence: Q row is (1-p) on the diagonal
        q = np.diag([0.5, 0.5, 0.5])
        d = path3_dataset([1, 0, 1], [0, 0, 0])
        c = estimate_credibility(d, sim(q))
        assert np.allclose(c.values, 1.0)
        assert c.defined.all()

    def test_zero_same_group_mass_undefined(self):
        q = np.array([[0.0, 0.3], [0.3, 0.6]])
        d = make_dataset([0.1, 0.2], [], [1, 0], [0, 1])
        c = estimate_credibility(d, sim(q))
        assert not c.defined[0]
        assert np.isnan(c.values[0])
        assert c.defined[1]

    @pytest.mark.parametrize("k, m", [(113, 3), (83, 5), (1, 1)])
    def test_adjacency_credibility_is_correctly_rounded(self, k, m):
        # a star: sample 0 has 128 same-group neighbours, k of them sharing
        # its label, and m other-group ones, so its credibility is k/128
        n = 1 + 128 + m
        adj = sparse.lil_matrix((n, n), dtype=bool)
        adj[0, 1:] = True
        adj[1:, 0] = True
        adj = adj.tocsr()
        g = ComparabilityGraph(adj)
        groups = np.r_[0, np.zeros(128, int), np.ones(m, int)]
        labels = np.r_[1, np.ones(k, int), np.zeros(128 - k + m, int)]
        d = make_dataset(np.zeros(n), [], labels, groups)
        c = estimate_credibility(d, adjacency_similarity(g))
        assert Fraction(c.values[0]) == Fraction(k, 128)

    def test_matches_grid_argmin(self):
        rng = np.random.default_rng(0)
        d, q = random_instance(rng, 20)
        c = estimate_credibility(d, q)
        for i in range(d.n):
            weights = np.where(d.groups == d.groups[i], q.rows([i])[0], 0.0)
            targets = (d.labels == d.labels[i]).astype(float)
            assert abs(c.values[i] - grid_argmin(weights, targets)) <= 1e-3


class TestBias:
    def test_inputs_from_another_table_rejected(self):
        d = path3_dataset([1, 0, 1], [0, 1, 0])
        c = estimate_credibility(d, sim(Q_PATH))
        with pytest.raises(ValueError, match="Estimate over 3 rows .* 2 rows"):
            estimate_bias(d.subset([0, 1]), sim(Q_PATH[:2, :2]), c)
        with pytest.raises(ValueError, match="Proximity over 3 rows .* 2 rows"):
            estimate_bias(d.subset([0, 1]), sim(Q_PATH), Estimate(c.values[:2]))

    def test_same_label_neighbors_give_zero(self):
        d = path3_dataset([1, 1, 1], [0, 1, 0])
        c = estimate_credibility(d, sim(Q_PATH))
        b = estimate_bias(d, sim(Q_PATH), c)
        assert b.defined.all()
        assert np.allclose(b.values, 0.0)

    def test_two_contributor_hand_value(self):
        # contributors: (cred 1.0, sim 0.4, opposite label), (cred 0.5, sim 0.2, same label)
        d = make_dataset([0.0, 0.0, 0.0], [], [0, 1, 0], [0, 1, 1])
        q = sim([[1.0, 0.4, 0.2], [0.4, 1.0, 0.0], [0.2, 0.0, 1.0]])
        c = Estimate([1.0, 1.0, 0.5])
        b = estimate_bias(d, q, c)
        assert b.values[0] == pytest.approx(0.8, abs=1e-12)

    def test_isolated_vertex_undefined(self):
        q = np.diag([0.5, 0.5])
        d = make_dataset([0.1, 0.9], [], [0, 1], [0, 1])
        c = estimate_credibility(d, q=sim(q))
        b = estimate_bias(d, sim(q), c)
        assert not b.defined.any()
        assert np.isnan(b.values).all()

    def test_undefined_credibility_contributes_zero_weight(self):
        d = make_dataset([0.0, 0.0, 0.0], [], [0, 1, 1], [0, 1, 1])
        q = sim([[1.0, 0.4, 0.4], [0.4, 1.0, 0.0], [0.4, 0.0, 1.0]])
        c = Estimate([1.0, np.nan, 1.0])
        b = estimate_bias(d, q, c)
        # only sample 2 carries weight
        assert b.values[0] == pytest.approx(1.0)

    def test_zero_credibility_equals_deletion(self):
        rng = np.random.default_rng(1)
        d, q = random_instance(rng, 12)
        cred = rng.random(12)
        i = 0
        j = int(np.nonzero(d.groups != d.groups[i])[0][0])
        zeroed = cred.copy()
        zeroed[j] = 0.0
        b_zeroed = estimate_bias(d, q, Estimate(zeroed))
        keep = np.array([k for k in range(12) if k != j])
        d_del = d.subset(keep)
        q_del = sim(q.rows(keep)[:, keep])
        b_del = estimate_bias(d_del, q_del, Estimate(cred[keep]))
        assert b_zeroed.values[0] == pytest.approx(b_del.values[0], abs=1e-12)

    def test_matches_grid_argmin(self):
        rng = np.random.default_rng(2)
        d, q = random_instance(rng, 20)
        c = estimate_credibility(d, q)
        b = estimate_bias(d, q, c)
        for i in range(d.n):
            if not b.defined[i]:
                continue
            weights = np.where(d.groups != d.groups[i], q.rows([i])[0] * c.values, 0.0)
            targets = (d.labels != d.labels[i]).astype(float)
            assert abs(b.values[i] - grid_argmin(weights, targets)) <= 1e-3

    def test_evidence_direction(self):
        rng = np.random.default_rng(3)
        d, q = random_instance(rng, 15)
        c = estimate_credibility(d, q)
        # force every other-group sample to share sample 0's label: bias 0
        labels_same = d.labels.copy()
        labels_same[d.groups != d.groups[0]] = d.labels[0]
        d_same = make_dataset(d.numericals, d.categoricals, labels_same, d.groups)
        b_same = estimate_bias(d_same, q, estimate_credibility(d_same, q))
        assert b_same.values[0] == pytest.approx(0.0, abs=1e-12)
        # force every other-group sample to the opposite label: bias 1
        labels_opp = d.labels.copy()
        labels_opp[d.groups != d.groups[0]] = 1 - d.labels[0]
        d_opp = make_dataset(d.numericals, d.categoricals, labels_opp, d.groups)
        b_opp = estimate_bias(d_opp, q, estimate_credibility(d_opp, q))
        assert b_opp.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_range_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d, q = random_instance(rng, 25)
            c = estimate_credibility(d, q)
            b = estimate_bias(d, q, c)
            assert (c.values[c.defined] >= 0).all() and (c.values[c.defined] <= 1).all()
            assert (b.values[b.defined] >= 0).all() and (b.values[b.defined] <= 1).all()


class TestContributions:
    def setup_method(self):
        self.d = make_dataset([0.0, 0.0, 0.0], [], [0, 1, 0], [0, 1, 1])
        self.q = sim([[1.0, 0.4, 0.2], [0.4, 1.0, 0.0], [0.2, 0.0, 1.0]])
        self.c = Estimate([1.0, 1.0, 0.5])

    def test_two_contributor_ranking(self):
        top = bias_contributions(self.d, self.q, self.c, 0, 2)
        assert [e.index for e in top] == [1, 2]
        assert top[0].contribution == pytest.approx(0.8)
        assert top[1].contribution == pytest.approx(0.0)
        assert top[0].credibility == pytest.approx(1.0)
        assert top[0].similarity == pytest.approx(0.4)

    def test_k_larger_than_contributor_count(self):
        top = bias_contributions(self.d, self.q, self.c, 0, 50)
        assert len(top) == 2

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="top_k must be non-negative"):
            bias_contributions(self.d, self.q, self.c, 0, -1)

    def test_k_truncates(self):
        top = bias_contributions(self.d, self.q, self.c, 0, 1)
        assert [e.index for e in top] == [1]

    def test_zero_bias_means_zero_contributions(self):
        d = make_dataset([0.0, 0.0], [], [1, 1], [0, 1])
        q = sim([[1.0, 0.5], [0.5, 1.0]])
        c = Estimate([1.0, 1.0])
        top = bias_contributions(d, q, c, 0, 5)
        assert len(top) == 1 and top[0].contribution == 0.0

    def test_inputs_from_another_table_rejected(self):
        # the first two rows, explained from the Q or credibility of all three
        d = self.d.subset([0, 1])
        with pytest.raises(ValueError, match="Proximity over 3 rows .* 2 rows"):
            bias_contributions(d, self.q, Estimate([1.0, 1.0]), 0, 2)
        with pytest.raises(ValueError, match="Estimate over 3 rows .* 2 rows"):
            bias_contributions(d, sim(self.q.matrix[:2, :2]), self.c, 0, 2)

    def test_undefined_bias_raises(self):
        q = sim(np.diag([0.5, 0.5]))
        d = make_dataset([0.1, 0.9], [], [0, 1], [0, 1])
        c = estimate_credibility(d, q)
        with pytest.raises(UndefinedBiasError, match="no comparable other-group evidence"):
            bias_contributions(d, q, c, 0, 3)

    def test_decomposition_sums_to_bias(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            d, q = random_instance(rng, 20)
            c = estimate_credibility(d, q)
            b = estimate_bias(d, q, c)
            for i in range(d.n):
                if not b.defined[i]:
                    continue
                full = bias_contributions(d, q, c, i, d.n)
                assert abs(sum(e.contribution for e in full) - b.values[i]) <= 1e-10

    def test_ties_break_by_ascending_index(self):
        d = make_dataset([0.0] * 4, [], [0, 1, 1, 1], [0, 1, 1, 1])
        q = sim(np.full((4, 4), 0.25) + np.diag([0.5] * 4))
        c = Estimate([1.0] * 4)
        top = bias_contributions(d, q, c, 0, 3)
        assert [e.index for e in top] == [1, 2, 3]


class TestAttributeEndToEnd:
    def test_disconnected_groups_all_bias_undefined(self):
        # the two groups sit far apart: no cross-group comparability
        num = [0.0, 0.05, 0.9, 0.95]
        d = make_dataset(num, [], [1, 0, 1, 0], [0, 0, 1, 1])
        report = attribute(d, ComparabilityConfig(0.1, 2), damping=0.1)
        assert not report.bias.defined.any()
        assert report.credibility.defined.all()

    def test_single_sample(self):
        d = make_dataset([0.5], [], [1], [0])
        report = attribute(d, ComparabilityConfig(0.1, 2))
        assert report.credibility.values[0] == pytest.approx(1.0)
        assert not report.bias.defined[0]

    def test_rejected_applicant_among_approved_comparables(self):
        # one group-0 sample denied while all its comparable group-1
        # neighbors were credibly approved: bias close to 1
        num = np.array([0.50, 0.48, 0.52, 0.49, 0.51, 0.47, 0.53])
        labels = np.array([0, 1, 1, 1, 1, 1, 1])
        groups = np.array([0, 1, 1, 1, 1, 1, 1])
        d = make_dataset(num, [], labels, groups)
        report = attribute(d, ComparabilityConfig(0.1, 2), damping=0.1)
        assert report.bias.defined[0]
        assert report.bias.values[0] > 0.9

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, 30)
        r1 = attribute(d, ComparabilityConfig(0.3, 1))
        r2 = attribute(d, ComparabilityConfig(0.3, 1))
        assert np.array_equal(r1.bias.values, r2.bias.values, equal_nan=True)
        assert r1.to_text() == r2.to_text()
        assert all(np.array_equal(a, b) for a, b in zip(r1.explained, r2.explained))
        # top_k=0 skips the explanations and changes nothing else
        r0 = attribute(d, ComparabilityConfig(0.3, 1), top_k=0)
        assert len(r1.explained[0]) > 0
        assert all(len(col) == 0 for col in r0.explained)
        for est in ("credibility", "bias"):
            for part in ("values", "defined"):
                assert np.array_equal(getattr(getattr(r0, est), part),
                                      getattr(getattr(r1, est), part), equal_nan=True)
        assert all(r0.explanations(i) == () for i in range(d.n))

    def test_unknown_similarity_rejected_before_the_graph(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("graph built")

        monkeypatch.setattr(attribution, "build_comparability_graph", unreachable)
        d = path3_dataset([1, 0, 1], [0, 1, 0])
        with pytest.raises(ValueError, match="unknown similarity 'bogus'"):
            attribute(d, similarity="bogus")

    def test_explanations_of_an_index_outside_the_report_raise(self):
        cfg = SynthConfig(n_per_group=100, seed=3)
        d = inject_individual_bias(generate_base(cfg), cfg)[0]
        report = attribute(d, ComparabilityConfig(0.1, 2), top_k=3)
        assert len(report.explanations(d.n - 1)) == 3
        for i in (-1, d.n, 10**6):
            with pytest.raises(IndexError, match=f"sample index {i} out of range for 200"):
                report.explanations(i)

    def test_a_bool_or_float_index_is_no_sample(self):
        # a float is not read as a nearby row, nor True as row 1; a numpy
        # signed or unsigned int reads as the Python int
        cfg = SynthConfig(n_per_group=100, seed=3)
        d = inject_individual_bias(generate_base(cfg), cfg)[0]
        report = attribute(d, ComparabilityConfig(0.1, 2), top_k=3)
        q, c = report.similarity, report.credibility
        for bad in (1.5, 1.9, True, np.float64(2.0)):
            with pytest.raises(IndexError, match=f"sample index {bad} is a"):
                report.explanations(bad)
            with pytest.raises(IndexError, match=f"sample index {bad} is a"):
                bias_contributions(d, q, c, bad, 3)
        for i in (np.int32(7), np.uint8(7), np.uint64(7)):
            assert report.explanations(i) == report.explanations(7)
            assert bias_contributions(d, q, c, i, 3) == bias_contributions(d, q, c, 7, 3)

    def test_contributions_of_an_index_outside_n_raise(self):
        # Under the walk and the adjacency bypass alike, -1 does not wrap to
        # the last row and n is not left to numpy's bare IndexError.
        cfg = SynthConfig(n_per_group=100, seed=3)
        d = inject_individual_bias(generate_base(cfg), cfg)[0]
        for similarity in ("rwr", "adjacency"):
            report = attribute(d, ComparabilityConfig(0.1, 2), top_k=0, similarity=similarity)
            q, c = report.similarity, report.credibility
            assert len(bias_contributions(d, q, c, d.n - 1, 3)) == 3
            for i in (-1, d.n):
                with pytest.raises(IndexError, match=f"sample index {i} out of range for 200"):
                    bias_contributions(d, q, c, i, 3)

    def test_adjacency_similarity_variant(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, 25)
        report = attribute(d, ComparabilityConfig(0.4, 2), similarity="adjacency")
        ok = report.bias.defined
        assert (report.bias.values[ok] >= 0).all() and (report.bias.values[ok] <= 1).all()

    def test_adjacency_ties_are_bit_equal_and_listed_by_index(self):
        # Without the 1/degree factor each adjacency credibility is a ratio of
        # whole neighbour counts, so equal fractions are bit-equal and tied
        # contributors come by index; scaling the rows first would give 6 and
        # 17 a last bit more than 13 and list 6, 17, 13.
        x = np.array([0, 2, 1, 2, 2, 1, 0, 2, 0, 1, 0, 0, 2, 1, 0, 0, 1, 0, 2, 1, 1, 2, 0])
        c = [0, 0, 1, 0, 2, 2, 2, 0, 1, 0, 0, 2, 1, 2, 1, 1, 1, 2, 1, 2, 2, 2, 2]
        y = [0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0]
        s = [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0]
        d = make_dataset(x / 10, c, y, s)
        report = attribute(d, ComparabilityConfig(0.1, 0), similarity="adjacency", top_k=3)
        for i in (11, 20):
            listed = report.explanations(i)
            assert [e.index for e in listed] == [6, 13, 17]
            assert len({e.credibility for e in listed}) == 1
            assert len({e.contribution for e in listed}) == 1

    def test_rwr_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 25)
        cfg = ComparabilityConfig(0.4, 2)
        report = attribute(d, cfg)
        w = symmetric_normalize(build_comparability_graph(d, cfg)).toarray()
        oracle = sim(np.linalg.solve(np.eye(d.n) - 0.1 * w, 0.9 * np.eye(d.n)))
        expected = estimate_bias(d, oracle, estimate_credibility(d, oracle))
        assert np.array_equal(report.bias.defined, expected.defined)
        assert np.allclose(report.bias.values, expected.values, atol=1e-8, equal_nan=True)

    @pytest.mark.parametrize("damping", [0.1, 0.5])  # the cross-group block at both
    def test_explanations_meet_the_dense_solve_contract(self, damping):
        # Shares within 1e-9 of a dense solve's; indices as the solve ranks
        # them wherever neighbouring shares differ by more than that.
        cfg = SynthConfig(n_per_group=400, seed=1)
        d = inject_individual_bias(generate_base(cfg), cfg)[0]
        graph_cfg, k = ComparabilityConfig(0.1, 2), 5
        report = attribute(d, graph_cfg, damping=damping, top_k=k)
        w = symmetric_normalize(build_comparability_graph(d, graph_cfg)).toarray()
        oracle = np.linalg.solve(np.eye(d.n) - damping * w, (1 - damping) * np.eye(d.n))
        cred = estimate_credibility(d, sim(oracle))
        assert np.array_equal(np.unique(report.explained[0]),
                              np.flatnonzero(estimate_bias(d, sim(oracle), cred).defined))
        pinned = 0
        for i in np.unique(report.explained[0]):
            want = reference_contributions(d, oracle, cred, i, d.n)
            got = report.explanations(i)
            assert len(got) == min(k, len(want))
            shares = np.array([e[1] for e in want[:k + 1]])
            assert np.abs(np.array([e.contribution for e in got]) - shares[:len(got)]).max() <= 1e-9
            gaps = np.abs(np.diff(shares)) > 1e-9
            apart = np.r_[True, gaps][:len(got)] & np.r_[gaps, True][:len(got)]
            assert [e.index for e, a in zip(got, apart) if a] == \
                [e[0] for e, a in zip(want, apart) if a]
            pinned += apart.sum()
        assert pinned > 0


class TestReportSerialization:
    def test_line_format_and_rendering(self, tmp_path):
        d = make_dataset([0.0, 0.05, 0.1], [], [0, 1, 1], [0, 1, 1])
        report = attribute(d, ComparabilityConfig(0.1, 2), damping=0.5, top_k=2)
        text = report.to_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + d.n
        first = lines[1].split("\t")
        assert first[0] == "0" and first[1] == "0" and first[2] == "0"
        # six fractional digits, bit-exact rendering
        assert first[3] == f"{report.credibility.values[0]:.6f}"
        assert first[4] == f"{report.bias.values[0]:.6f}"
        assert first[5] in ("0", "1")
        path = tmp_path / "report.txt"
        report.write(path)
        assert path.read_text() == text

    def test_chunked_write_matches_the_line_format(self, tmp_path, monkeypatch):
        # Chunks of at most 7 rows plus explanations: rows with 10 explanations
        # each form a chunk alone, and undefined rows (no explanation) share
        # one. Both `to_text` and `write` give every line as formatted one row
        # at a time.
        rng = np.random.default_rng(13)
        x = np.r_[rng.random(40) * 0.1, np.linspace(0.25, 1.0, 6)]  # a clique, 6 isolated
        d = make_dataset(x, [], rng.integers(0, 2, len(x)), rng.integers(0, 2, len(x)))
        report = attribute(d, ComparabilityConfig(0.1, 0), similarity="adjacency", top_k=10)
        counts = np.bincount(report.explained[0], minlength=d.n)
        assert (~report.bias.defined).sum() > 1 and counts.max() > 7
        lines = ["# index\ts\ty\tcredibility\tbias\tdefined\texplanations(j:contr:cred:sim)"]
        for i in range(d.n):
            expl = ";".join(f"{e.index}:{e.contribution:.6f}:{e.credibility:.6f}:{e.similarity:.6f}"
                            for e in report.explanations(i))
            lines.append(f"{i}\t{d.groups[i]}\t{d.labels[i]}\t{report.credibility.values[i]:.6f}"
                         f"\t{report.bias.values[i]:.6f}\t{int(report.bias.defined[i])}\t{expl}")
        want = "\n".join(lines) + "\n"
        monkeypatch.setattr(attribution, "_REPORT_ITEMS", 7)
        assert len(list(report._text_chunks())) > 10
        assert report.to_text() == want
        path = tmp_path / "report.txt"
        report.write(path)
        assert path.read_bytes() == want.encode("utf-8")

    def test_undefined_rendered_as_nan(self):
        d = make_dataset([0.5], [], [1], [0])
        report = attribute(d, ComparabilityConfig(0.1, 2))
        line = report.to_text().splitlines()[1]
        fields = line.split("\t")
        assert fields[4] == "nan"
        assert fields[5] == "0"
        assert fields[6] == ""

    def test_explanations_sorted_desc(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, 20, n_num=1, n_cat=0)
        report = attribute(d, ComparabilityConfig(0.5, 2), top_k=10)
        for i in range(d.n):
            contrs = [e.contribution for e in report.explanations(i)]
            assert contrs == sorted(contrs, reverse=True)


def reference_contributions(d, qm, c, i, k):
    """Brute-force top-k of row i over its other-group entries of a dense
    Q, the entries the kernel reads, summed in column order; None when
    undefined."""
    cred = np.where(c.defined, c.values, 0.0)
    other = np.flatnonzero(d.groups != d.groups[i])
    weights = qm[i, other] * cred[other]
    den = sum(weights.tolist(), 0.0)
    if den <= 0.0:
        return None
    shares = np.where(d.labels[other] != d.labels[i], weights, 0.0) / den
    contributors = np.flatnonzero(weights > 0.0)
    top = contributors[np.lexsort((contributors, -shares[contributors]))][: max(k, 0)]
    return [(int(other[j]), float(shares[j]), float(cred[other[j]]), float(qm[i, other[j]]))
            for j in top]


def kernel_entries(d, q):
    """Q as the batched kernel reads it in `attribute`: a walk's cross-group
    block (the same-group entries left 0), or every row of a stored Q."""
    if isinstance(q, StoredProximity):
        return q.rows(np.arange(d.n))
    first = d.groups == 0
    block = similarity_module._cross_block(q.w, q.damping, first)
    qm = np.zeros((d.n, d.n))
    qm[np.ix_(first, ~first)] = block
    qm[np.ix_(~first, first)] = block.T
    return qm


def assert_matches_reference(found, expected):
    assert [e.index for e in found] == [e[0] for e in expected]
    assert [tuple(e) for e in found] == expected


# Grid-valued features make exact share ties; the far value is an isolated vertex.
grid_samples = st.lists(
    st.tuples(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0]), st.integers(0, 1), st.integers(0, 1)),
    min_size=1, max_size=24,
)


class TestBatchedKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_k_best_matches_a_stable_sort_of_each_row(self, data):
        # signed zeros tie, inf is no candidate, and k runs past the row width
        width = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, np.inf]),
                                           min_size=width, max_size=width), max_size=5))
        k = data.draw(st.integers(1, width + 2))
        key = np.array(rows).reshape(-1, width)
        want = [(i, j) for i, row in enumerate(rows)
                for j in sorted(sorted(range(width), key=row.__getitem__)[:k]) if row[j] < np.inf]
        ri, ci = _k_best(key, k)
        assert list(zip(ri.tolist(), ci.tolist())) == want

    @settings(max_examples=60, deadline=None)
    @given(grid_samples, st.sampled_from(["rwr", "adjacency"]), st.sampled_from([0.1, 0.5]))
    # a wide one-sided block under the walk at a high damping
    @example([(0.0, 0, 0)] * 16 + [(0.0, 1, 0), (0.0, 1, 1)], "rwr", 0.5)
    def test_attribute_matches_per_row_reference(self, rows, similarity, damping):
        x, s, y = (list(col) for col in zip(*rows))
        d = make_dataset(x, [], y, s)
        for k in (1, 5, d.n):
            report = attribute(d, ComparabilityConfig(0.1, 2), damping=damping, top_k=k,
                               similarity=similarity)
            qm = kernel_entries(d, report.similarity)
            for i in range(d.n):
                expected = reference_contributions(d, qm, report.credibility, i, k)
                assert report.bias.defined[i] == (expected is not None)
                assert_matches_reference(report.explanations(i), expected or [])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_undefined_credibility_dense_and_sparse(self, n, seed):
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, n, n_num=1, n_cat=0)
        raw = rng.choice([0.0, 0.25, 0.5], size=(n, n))
        qm = np.triu(raw) + np.triu(raw, 1).T
        c = estimate_of(rng.choice([0.5, 1.0], size=n), rng.random(n) < 0.7)
        every = sparse.csr_matrix((qm.ravel(), np.tile(np.arange(n), n), np.arange(0, n * n + 1, n)),
                                  shape=(n, n))  # each entry stored, the zeros too
        for q in (StoredProximity(every), StoredProximity(sparse.csr_matrix(qm))):
            for k in (1, 5, n):
                defined, columns = _explanations(d, q, c, np.arange(n), k)
                assert np.all(np.diff(columns[0]) >= 0)  # sorted by row
                for i in range(n):
                    expected = reference_contributions(d, qm, c, i, k)
                    if expected is None:
                        assert i not in defined and i not in columns[0]
                        with pytest.raises(UndefinedBiasError):
                            bias_contributions(d, q, c, i, k)
                        continue
                    assert i in defined
                    mine = columns[0] == i
                    index, share, sim = (col[mine] for col in columns[1:])
                    batched = tuple(map(Explanation, index.tolist(), share.tolist(),
                                        c.values[index].tolist(), sim.tolist()))
                    assert_matches_reference(batched, expected)
                    assert bias_contributions(d, q, c, i, k) == batched

    @settings(max_examples=50, deadline=None)
    @given(st.integers(16, 40), st.integers(0, 2**32 - 1))
    def test_shares_do_not_depend_on_storage(self, n, seed):
        # The walk's row blocks (every other-group column, from the cross block
        # or a row solved alone) and a CSR of the same entries give the same
        # bits. A path through all vertices keeps every entry positive, so each
        # row has at least 8 non-dyadic other-group entries: sums in two orders
        # would part in the last bit.
        rng = np.random.default_rng(seed)
        d = make_dataset(rng.random(n), [], rng.integers(0, 2, size=n),
                         rng.permutation(np.arange(n) % 2))
        upper = np.triu(rng.random((n, n)) < 0.3, k=1) | np.eye(n, k=1, dtype=bool)
        adjacency = sparse.csr_matrix(upper | upper.T)
        graph = ComparabilityGraph(adjacency)
        walk = WalkProximity(symmetric_normalize(graph), 0.5)
        c = estimate_of(rng.random(n), rng.random(n) < 0.9)
        k = int(rng.integers(1, n + 1))
        block = StoredProximity(sparse.csr_matrix(kernel_entries(d, walk)))
        want, got = (_explanations(d, q, c, np.arange(n), k) for q in (walk, block))
        for a, b in zip((want[0], *want[1]), (got[0], *got[1])):
            assert np.array_equal(a, b)
        solved = StoredProximity(sparse.csr_matrix(np.vstack([walk.rows([i]) for i in range(n)])))
        for i in range(n):
            assert bias_contributions(d, solved, c, i, k) == bias_contributions(d, walk, c, i, k)

    def test_walk_solves_the_cross_block_for_many_rows_only(self, monkeypatch):
        # Every defined row of a walk is read from one cross-block solve; a
        # single row, as `bias_contributions` asks, is solved alone.
        calls = []

        def counted(*args):
            calls.append(1)
            return cross_block(*args)

        cross_block = similarity_module._cross_block
        monkeypatch.setattr(similarity_module, "_cross_block", counted)
        rng = np.random.default_rng(5)
        # two groups of 15, solved in one call that eliminates group 0
        d = make_dataset(rng.random(30), [], rng.integers(0, 2, size=30), np.arange(30) % 2)
        graph = build_comparability_graph(d, ComparabilityConfig(0.3, 0))
        q = WalkProximity(symmetric_normalize(graph), 0.1)
        c = estimate_credibility(d, q)
        rows = np.flatnonzero(estimate_bias(d, q, c).defined)
        assert len(rows) > 1
        defined, _ = _explanations(d, q, c, rows, 5)
        assert np.array_equal(defined, rows) and len(calls) == 1
        for i in rows:
            bias_contributions(d, q, c, i, 5)
        assert len(calls) == 1

    def test_nothing_explained_solves_nothing(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("unexpected solve")

        monkeypatch.setattr(similarity_module, "_cross_block", refused)
        one_group = make_dataset([0.0, 0.05, 0.1], [], [0, 1, 1], [1, 1, 1])
        apart = make_dataset([0.0, 0.05, 0.9, 0.95], [], [1, 0, 1, 0], [0, 0, 1, 1])
        for d in (one_group, apart):
            report = attribute(d, ComparabilityConfig(0.1, 2), damping=0.1, top_k=5)
            assert not report.bias.defined.any()
            assert all(len(col) == 0 for col in report.explained)
        with pytest.raises(AssertionError, match="unexpected solve"):  # the patch is live
            attribute(make_dataset([0.0, 0.05], [], [0, 1], [0, 1]), ComparabilityConfig(0.1, 2),
                      damping=0.1, top_k=5)

    @pytest.mark.parametrize("similarity", ["rwr", "adjacency"])
    def test_contributor_credibility_is_the_reports(self, similarity):
        # the explanation columns hold no credibility: each contributor's is
        # read from the report's estimate, bit for bit
        rng = np.random.default_rng(11)
        d = random_dataset(rng, 60)
        report = attribute(d, ComparabilityConfig(0.3, 1), top_k=5, similarity=similarity)
        listed = []
        for i in np.flatnonzero(report.bias.defined):
            listed += report.explanations(i)
            listed += bias_contributions(d, report.similarity, report.credibility, i, 5)
        index = [e.index for e in listed]
        assert len(report.explained) == 4 and len(listed) > 0
        assert np.array([e.credibility for e in listed]).tobytes() == \
            report.credibility.values[index].tobytes()

    def test_adjacency_report_keeps_q_sparse(self):
        rng = np.random.default_rng(10)
        d = random_dataset(rng, 40)
        cfg = ComparabilityConfig(0.3, 1)
        q = attribute(d, cfg, similarity="adjacency").similarity.matrix
        assert sparse.issparse(q)
        assert q.nnz == build_comparability_graph(d, cfg).adjacency.nnz

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.sampled_from([4, 12, 28]))
    def test_csr_blocks_change_nothing(self, n, seed, budget):
        # row blocks of a few stored entries (a quarter of the budget) against
        # one unbounded block;
        # row 0 is isolated and some credibility is zero or undefined, so
        # some rows have no credible other-group mass
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, n, n_num=1, n_cat=0)
        raw = rng.choice([0.0, 0.0, 0.3, 1.0], size=(n, n))
        raw[0] = 0.0
        scaled = (np.triu(raw) + np.triu(raw, 1).T) * (rng.random(n) + 0.5)[:, None]
        q = StoredProximity(sparse.csr_matrix(scaled))
        c = estimate_of(rng.choice([0.0, 0.5, 1.0], size=n), rng.random(n) < 0.7)
        rows = np.flatnonzero(rng.random(n) < 0.8)
        k = int(rng.integers(1, n + 1))

        def run():
            singles = []
            for i in range(n):
                try:
                    singles.append(bias_contributions(d, q, c, i, k))
                except UndefinedBiasError:
                    singles.append(None)
            return _explanations(d, q, c, rows, k), singles

        with mock.patch.object(similarity_module, "_BLOCK_ENTRIES", 2**62):
            (whole_defined, whole), whole_singles = run()
        with mock.patch.object(similarity_module, "_BLOCK_ENTRIES", budget):
            (defined, blocked), singles = run()
        assert 0 not in defined and 0 not in blocked[0]
        for got, want in zip((defined, *blocked), (whole_defined, *whole)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert singles == whole_singles

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.8]))
    def test_walk_blocks_change_nothing(self, n, seed, damping):
        # the cross block read one row at a time (a budget of one entry for
        # every other-group column) against one unbounded block
        rng = np.random.default_rng(seed)
        d = random_dataset(rng, n, n_num=1, n_cat=1)
        q = WalkProximity(symmetric_normalize(build_comparability_graph(
            d, ComparabilityConfig(0.5, 1))), damping)
        c = estimate_of(rng.choice([0.0, 0.5, 1.0], size=n), rng.random(n) < 0.8)
        rows = np.flatnonzero(rng.random(n) < 0.8)
        k = int(rng.integers(1, n + 1))
        with mock.patch.object(similarity_module, "_BLOCK_ENTRIES", 2**62):
            whole_defined, whole = _explanations(d, q, c, rows, k)
        with mock.patch.object(similarity_module, "_BLOCK_ENTRIES", 4):  # budget 1
            defined, blocked = _explanations(d, q, c, rows, k)
        for got, want in zip((defined, *blocked), (whole_defined, *whole)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_csr_explanations_heap_does_not_grow_with_nnz(self):
        # 1,000 rows with 4x the stored entries: the row blocks bound the
        # temporaries, and the result is at most k entries a row
        n = 1000
        rng = np.random.default_rng(9)
        d = random_dataset(rng, n, n_num=1, n_cat=0)
        c = Estimate(np.full(n, 0.5))
        peaks = []
        for density in (0.25, 1.0):
            upper = np.triu(rng.random((n, n)) < density, k=1)
            adjacency = sparse.csr_matrix(upper | upper.T)
            q = adjacency_similarity(ComparabilityGraph(adjacency))
            tracemalloc.start()
            try:
                _explanations(d, q, c, np.arange(n), 5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


    def test_adjacency_stages_heap_does_not_grow_with_nnz(self, tmp_path):
        # 1,000 rows with 4x the stored entries: from the graph on, the bypass
        # keeps A boolean and multiplies it in row blocks, and the report is
        # written in chunks, so no stage holds all entries as floats.
        n = 1000
        rng = np.random.default_rng(9)
        d = random_dataset(rng, n, n_num=1, n_cat=0)
        peaks = []
        for density in (0.25, 1.0):
            upper = np.triu(rng.random((n, n)) < density, k=1)
            adjacency = sparse.csr_matrix(upper | upper.T)
            del upper
            g = ComparabilityGraph(adjacency)
            tracemalloc.start()
            try:
                q = adjacency_similarity(g)
                cred = estimate_credibility(d, q)
                bias = estimate_bias(d, q, cred)
                _, explained = _explanations(d, q, cred, np.flatnonzero(bias.defined), 5)
                BiasReport(groups=d.groups, labels=d.labels, credibility=cred, bias=bias,
                           explained=explained, similarity=q).write(tmp_path / "report.txt")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

# Two grid-valued numericals and one categorical: ties, exact-threshold
# gaps and isolated vertices.
mixed_samples = st.lists(
    st.tuples(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0]), st.sampled_from([0.0, 0.05, 0.5]),
              st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
    min_size=1, max_size=24,
)


def mixed_dataset(rows):
    x1, x2, cat, s, y = (np.array(col) for col in zip(*rows))
    return make_dataset(np.column_stack([x1, x2]), cat, y, s)


def assert_same_estimate(got, values, defined):
    assert np.array_equal(got.defined, defined)
    assert np.allclose(got.values, values, rtol=0.0, atol=1e-12, equal_nan=True)


class TestAttributeProperties:
    @settings(max_examples=60, deadline=None)
    @given(mixed_samples, st.sampled_from(["rwr", "adjacency"]), st.data())
    def test_permuting_rows_permutes_estimates(self, rows, similarity, data):
        d = mixed_dataset(rows)
        perm = np.array(data.draw(st.permutations(range(d.n))), dtype=int)
        cfg = ComparabilityConfig(0.1, 1)
        base = attribute(d, cfg, damping=0.5, top_k=0, similarity=similarity)
        moved = attribute(d.subset(perm), cfg, damping=0.5, top_k=0, similarity=similarity)
        for name in ("credibility", "bias"):
            est = getattr(base, name)
            assert_same_estimate(getattr(moved, name), est.values[perm], est.defined[perm])

    @settings(max_examples=60, deadline=None)
    @given(mixed_samples, st.sampled_from(["rwr", "adjacency"]))
    def test_swapping_group_codes_changes_nothing(self, rows, similarity):
        d = mixed_dataset(rows)
        swapped = make_dataset(d.numericals, d.categoricals, d.labels, 1 - d.groups)
        cfg = ComparabilityConfig(0.1, 1)
        base = attribute(d, cfg, damping=0.5, top_k=0, similarity=similarity)
        other = attribute(swapped, cfg, damping=0.5, top_k=0, similarity=similarity)
        for name in ("credibility", "bias"):
            est = getattr(base, name)
            assert_same_estimate(getattr(other, name), est.values, est.defined)
