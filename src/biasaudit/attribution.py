"""Per-sample credibility and bias estimation with contributor-level explanations.

Credibility of sample i is the proximity-weighted fraction of same-group
samples (self included) that share i's label:

    c_i = sum_j [s_j = s_i][y_j = y_i] Q[i, j] / sum_j [s_j = s_i] Q[i, j].

Bias of sample i is the credibility- and proximity-weighted fraction of
other-group samples carrying the opposite label:

    b_i = sum_j [s_j != s_i][y_j != y_i] c_j Q[i, j]
        / sum_j [s_j != s_i] c_j Q[i, j].

Both are the closed-form minimizers of the corresponding weighted local
regressions on label indicators, and both are one ratio: row i's mass on
one (group, label) cell over its mass on both cells of that group, read
from Q @ V (`Proximity.apply`; a row factor of Q cancels), where V holds
the four cell indicator columns. Credibility takes i's own cell with unit
weights, bias the opposite group and label with credibility weights. A
zero denominator means there is no evidence to estimate from; the entry is
NaN, undefined, rather than raised.
Each defined bias value decomposes exactly into per-contributor shares.

All explanations come from one kernel over the row blocks that
`Proximity.other_group_rows` yields for any storage of Q. Each row is
summed in column order, so a share does not depend on how Q is stored or
blocked; each block is cut to its rows' k best before the next is read,
and one lexsort over (row, share descending, index ascending) orders the
result. The report keeps it as columns sorted by row;
`BiasReport.explanations(i)` reads one slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .comparability import _BLOCK_ENTRIES, ComparabilityConfig, build_comparability_graph
from .data import Dataset, _freeze, _sample_indices
from .similarity import (
    Proximity,
    _k_best,
    _row_blocks,
    adjacency_similarity,
    rwr_proximity,
    symmetric_normalize,
)

BIAS_THRESHOLD = 0.5
_REPORT_ITEMS = _BLOCK_ENTRIES // 64  # rows plus explanations per report chunk


class UndefinedBiasError(ValueError):
    """Raised when an explanation is requested for a sample with no other-group evidence."""


@dataclass(frozen=True, eq=False)
class Estimate:
    """Per-sample credibility or bias in [0, 1], NaN exactly where undefined:
    `values`, a 1-D float array held by `data._freeze`, from which `defined` and
    `filled`, undefined read as zero, are derived. Any other shape is a ValueError."""

    values: np.ndarray

    def __post_init__(self):
        if _freeze(self, "values").ndim != 1:
            raise ValueError("an Estimate holds one value per sample, a 1-D array")

    @property
    def defined(self) -> np.ndarray:
        return ~np.isnan(self.values)

    @property
    def filled(self) -> np.ndarray:
        return np.where(self.defined, self.values, 0.0)


class Explanation(NamedTuple):
    index: int
    contribution: float
    credibility: float
    similarity: float


def _explanation_lists(columns, credibility, lo=0, hi=None) -> list:
    """Entries lo:hi of the explanation columns as lists in Explanation field
    order, each contributor's credibility read from `credibility`."""
    _, index, share, sim = (c[lo:hi] for c in columns)
    return [index.tolist(), share.tolist(), credibility[index].tolist(), sim.tolist()]


@dataclass(frozen=True, eq=False)
class BiasReport:
    """Full attribution result as columns: each sample's group and label,
    the two estimates, the explanation columns (row, index, contribution,
    similarity) sorted by row, and the similarity they were computed from.
    A contributor's credibility is read from `credibility`."""

    groups: np.ndarray
    labels: np.ndarray
    credibility: Estimate
    bias: Estimate
    explained: tuple
    similarity: Proximity = field(repr=False)

    def explanations(self, i: int) -> tuple:
        """Sample i's top-k explanations, empty if its bias is undefined; bad i: IndexError."""
        i = int(_sample_indices(i, len(self.groups)))
        lo, hi = np.searchsorted(self.explained[0], [i, i + 1])
        return tuple(map(Explanation, *_explanation_lists(
            self.explained, self.credibility.values, lo, hi)))

    def _text_chunks(self):
        """The report's text: the header line, then the sample lines in row
        chunks of at most `_REPORT_ITEMS` rows plus explanations (a row with
        more alone), each chunk formatted from its own slices of the columns."""
        n = len(self.groups)
        bounds = np.searchsorted(self.explained[0], np.arange(n + 1))  # row i's explanations
        samples = (self.groups, self.labels, self.credibility.values, self.bias.values,
                   self.bias.defined)
        yield "# index\ts\ty\tcredibility\tbias\tdefined\texplanations(j:contr:cred:sim)\n"
        for lo, hi in _row_blocks(bounds + np.arange(n + 1), _REPORT_ITEMS):
            entries = [f"{j}:{s:.6f}:{cj:.6f}:{x:.6f}" for j, s, cj, x in
                       zip(*_explanation_lists(self.explained, self.credibility.values,
                                               bounds[lo], bounds[hi]))]
            ends = (bounds[lo:hi + 1] - bounds[lo]).tolist()
            yield "".join(
                f"{i}\t{g}\t{y}\t{c:.6f}\t{b:.6f}\t{int(ok)}\t{';'.join(entries[e0:e1])}\n"
                for i, (g, y, c, b, ok), e0, e1 in zip(
                    range(lo, hi), zip(*(col[lo:hi].tolist() for col in samples)), ends, ends[1:]))

    def to_text(self) -> str:
        return "".join(self._text_chunks())

    def write(self, path) -> None:
        """Write the bytes of `to_text()` to `path` one chunk at a time, so at most
        one chunk's text and Python objects are alive at once."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._text_chunks())


def _check_rows(d: Dataset, *parts) -> None:
    """Raise unless every Estimate or Proximity in `parts` is over d's rows."""
    for part in parts:
        n = part.n if isinstance(part, Proximity) else len(part.values)
        if n != d.n:
            raise ValueError(f"{type(part).__name__} over {n} rows does not match "
                             f"the dataset's {d.n} rows")


def _cell_ratio(d: Dataset, q: Proximity, weight, flip: int) -> Estimate:
    """Sample i's proximity mass on the cell (g, y) = (s_i ^ flip, y_i ^ flip)
    over its mass on both cells of group g, each j counted with `weight` (a
    scalar or one per sample): ratios within rows of Q @ V, so a row factor
    of Q cancels. NaN and undefined where the group's mass is zero."""
    _check_rows(d, q)
    v = np.zeros((d.n, 4))
    v[np.arange(d.n), 2 * d.groups + d.labels] = weight
    mass = q.apply(v)
    rows, cell = np.arange(d.n), 2 * (d.groups ^ flip)
    den = mass[rows, cell] + mass[rows, cell + 1]
    num = mass[rows, cell + (d.labels ^ flip)]
    return Estimate(np.divide(num, den, out=np.full(d.n, np.nan), where=den > 0.0))


def estimate_credibility(d: Dataset, q: Proximity) -> Estimate:
    """Closed-form credibility over same-group proximity mass, self term included."""
    return _cell_ratio(d, q, 1.0, flip=0)


def estimate_bias(d: Dataset, q: Proximity, c: Estimate) -> Estimate:
    """Closed-form bias over credibility-weighted other-group proximity mass.

    Undefined credibility entries contribute zero weight; a sample with
    no credible other-group proximity mass is flagged undefined.
    """
    _check_rows(d, c)
    return _cell_ratio(d, q, c.filled, flip=1)


def _explanations(d: Dataset, q: Proximity, c: Estimate, rows, k: int):
    """The batched kernel. Returns the rows of `rows` with credible
    other-group proximity mass, ascending, and the columns (row, index,
    contribution, similarity) of their top-k explanations, sorted by row."""
    if k < 0:
        raise ValueError("top_k must be non-negative")
    _check_rows(d, q, c)
    cred = c.filled
    parts = [(np.empty(0, dtype=int),) * 3 + (np.empty(0),) * 2]
    for r, col, sim in q.other_group_rows(d.groups == 0, rows):
        w = sim * cred[col]
        den = np.cumsum(w, axis=1)[:, -1:]  # in column order: the same bits for any storage
        share = np.divide(np.where(d.labels[col] != d.labels[r, None], w, 0.0), den,
                          out=np.zeros(w.shape), where=den > 0.0)
        ri, ci = _k_best(np.where(w > 0.0, -share, np.inf), k) if k else ([], [])
        parts.append((r[den[:, 0] > 0.0], r[ri], np.broadcast_to(col, w.shape)[ri, ci],
                      share[ri, ci], sim[ri, ci]))
    defined, row, col, share, sim = (np.concatenate(f) for f in zip(*parts))
    order = np.lexsort((col, -share, row))
    return np.sort(defined), (row[order], col[order], share[order], sim[order])


def bias_contributions(
    d: Dataset, q: Proximity, c: Estimate, i: int, k: int
) -> tuple:
    """Top-k contributors to sample i's bias, sorted by share descending.

    A contributor is any other-group sample with positive weight
    c_j * Q[i, j]; over the full contributor list the shares sum to b_i
    exactly. Ties are broken by ascending sample index, and k beyond the
    contributor count returns the full list; a negative k is a ValueError,
    an i that `_sample_indices` refuses an IndexError. This is the one-row call
    of the kernel that `attribute` runs over all samples at once.
    """
    defined, columns = _explanations(d, q, c, [i], k)
    if not len(defined):
        raise UndefinedBiasError("no comparable other-group evidence")
    return tuple(map(Explanation, *_explanation_lists(columns, c.values)))


def attribute(
    d: Dataset,
    cfg: ComparabilityConfig = ComparabilityConfig(),
    damping: float = 0.1,
    top_k: int = 5,
    similarity: str = "rwr",
) -> BiasReport:
    """Run the full attribution pipeline on a normalized dataset.

    Stages: comparability graph -> symmetric normalization -> proximity
    ("rwr" walk or "adjacency" bypass) -> credibility -> bias -> top-`top_k`
    explanations of every defined sample from one call of the batched
    kernel (`top_k` = 0 passes it no rows, so none is solved). A negative
    `top_k`, a damping outside [0, 1) under either similarity, or an unknown
    similarity is a ValueError raised before the graph is built. The
    explanations are read after the estimates, so these do not depend on
    `top_k`. The report keeps Q, the operator, for later stages.
    Deterministic throughout.

    Explanation shares agree with those of a dense solve of Q within 1e-9;
    entries whose shares lie closer than that may come in either order, as
    any change of summation order can swap them.
    """
    if top_k < 0:
        raise ValueError("top_k must be non-negative")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must lie in [0, 1)")
    if similarity not in ("rwr", "adjacency"):
        raise ValueError(f"unknown similarity {similarity!r}")
    graph = build_comparability_graph(d, cfg)
    if similarity == "rwr":
        q = rwr_proximity(symmetric_normalize(graph), damping=damping)
    else:
        q = adjacency_similarity(graph)
    cred = estimate_credibility(d, q)
    bias = estimate_bias(d, q, cred)
    rows = np.flatnonzero(bias.defined) if top_k else []  # no row: nothing is solved
    _, explained = _explanations(d, q, cred, rows, top_k)
    return BiasReport(groups=d.groups, labels=d.labels, credibility=cred, bias=bias,
                      explained=explained, similarity=q)
