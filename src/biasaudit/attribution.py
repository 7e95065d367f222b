"""Per-sample credibility and bias estimation with contributor-level explanations.

Credibility of sample i is the proximity-weighted fraction of same-group
samples (self included) that share i's label:

    c_i = sum_j [s_j = s_i][y_j = y_i] Q[i, j] / sum_j [s_j = s_i] Q[i, j].

Bias of sample i is the credibility- and proximity-weighted fraction of
other-group samples carrying the opposite label:

    b_i = sum_j [s_j != s_i][y_j != y_i] c_j Q[i, j]
        / sum_j [s_j != s_i] c_j Q[i, j].

Both are the closed-form minimizers of the corresponding weighted local
regressions on label indicators. Every sum runs over (group, label)
cells, so both estimates read Q only through Q @ V, where V holds the
four cell indicator columns (scaled by credibility for the bias). A
zero denominator means there is no evidence to estimate from; the entry
is flagged undefined rather than raised. Each defined bias value decomposes exactly into per-contributor
shares, which are the explanation unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .comparability import ComparabilityConfig, build_comparability_graph
from .data import Dataset
from .similarity import SimilarityMatrix, adjacency_similarity, rwr_proximity, symmetric_normalize

BIAS_THRESHOLD = 0.5


class UndefinedBiasError(ValueError):
    """Raised when an explanation is requested for a sample with no other-group evidence."""


@dataclass(frozen=True)
class CredibilityVector:
    """Per-sample credibility in [0, 1]; NaN where undefined."""

    values: np.ndarray
    defined: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        defined = np.asarray(self.defined, dtype=bool)
        for arr in (values, defined):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "defined", defined)


@dataclass(frozen=True)
class BiasVector:
    """Per-sample bias in [0, 1]; NaN where undefined."""

    values: np.ndarray
    defined: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        defined = np.asarray(self.defined, dtype=bool)
        for arr in (values, defined):
            arr.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "defined", defined)


class Explanation(NamedTuple):
    index: int
    contribution: float
    credibility: float
    similarity: float


@dataclass(frozen=True)
class BiasRecord:
    index: int
    group: int
    label: int
    credibility: float
    bias: float
    defined: bool
    explanations: tuple


@dataclass(frozen=True)
class BiasReport:
    """Full attribution result: vectors, one explained record per sample,
    and the similarity they were computed from."""

    credibility: CredibilityVector
    bias: BiasVector
    records: tuple
    similarity: SimilarityMatrix = field(compare=False, repr=False)

    def to_text(self) -> str:
        lines = ["# index\ts\ty\tcredibility\tbias\tdefined\texplanations(j:contr:cred:sim)"]
        for r in self.records:
            expl = ";".join(
                f"{e.index}:{e.contribution:.6f}:{e.credibility:.6f}:{e.similarity:.6f}"
                for e in r.explanations
            )
            lines.append(
                f"{r.index}\t{r.group}\t{r.label}\t{r.credibility:.6f}\t{r.bias:.6f}"
                f"\t{int(r.defined)}\t{expl}"
            )
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _cell_mass(d: Dataset, q: SimilarityMatrix, weight) -> np.ndarray:
    """Q @ V: column 2*g + y is sample i's proximity mass on the cell (g, y),
    each sample j counted with `weight` (a scalar or one value per sample)."""
    v = np.zeros((d.n, 4))
    v[np.arange(d.n), 2 * d.groups + d.labels] = weight
    return q.matrix @ v


def estimate_credibility(d: Dataset, q: SimilarityMatrix) -> CredibilityVector:
    """Closed-form credibility over same-group proximity mass, self term included."""
    if q.matrix.shape != (d.n, d.n):
        raise ValueError("similarity matrix does not match dataset size")
    mass = _cell_mass(d, q, 1.0)
    rows, cell = np.arange(d.n), 2 * d.groups
    den = mass[rows, cell] + mass[rows, cell + 1]
    num = mass[rows, cell + d.labels]
    defined = den > 0.0
    values = np.full(d.n, np.nan)
    values[defined] = num[defined] / den[defined]
    return CredibilityVector(values=values, defined=defined)


def estimate_bias(d: Dataset, q: SimilarityMatrix, c: CredibilityVector) -> BiasVector:
    """Closed-form bias over credibility-weighted other-group proximity mass.

    Undefined credibility entries contribute zero weight; a sample with
    no credible other-group proximity mass is flagged undefined.
    """
    mass = _cell_mass(d, q, np.where(c.defined, c.values, 0.0))
    rows, cell = np.arange(d.n), 2 * (1 - d.groups)
    den = mass[rows, cell] + mass[rows, cell + 1]
    num = mass[rows, cell + 1 - d.labels]
    defined = den > 0.0
    values = np.full(d.n, np.nan)
    values[defined] = num[defined] / den[defined]
    return BiasVector(values=values, defined=defined)


def bias_contributions(
    d: Dataset, q: SimilarityMatrix, c: CredibilityVector, i: int, k: int
):
    """Top-k contributors to sample i's bias, sorted by share descending.

    A contributor is any other-group sample with positive weight
    c_j * Q[i, j]; over the full contributor list the shares sum to b_i
    exactly. Ties are broken by ascending sample index, and k beyond the
    contributor count returns the full list.
    """
    qm = q.matrix
    cred = np.where(c.defined, c.values, 0.0)
    other_group = d.groups != d.groups[i]
    weights = np.where(other_group, qm[i] * cred, 0.0)
    den = weights.sum()
    if den <= 0.0:
        raise UndefinedBiasError("no comparable other-group evidence")
    opposite = d.labels != d.labels[i]
    shares = np.where(opposite, weights, 0.0) / den
    contributors = np.nonzero(weights > 0.0)[0]
    order = np.lexsort((contributors, -shares[contributors]))
    top = contributors[order][: max(k, 0)]
    return [
        Explanation(int(j), float(shares[j]), float(cred[j]), float(qm[i, j])) for j in top
    ]


def attribute(
    d: Dataset,
    cfg: ComparabilityConfig = ComparabilityConfig(),
    damping: float = 0.1,
    top_k: int = 5,
    similarity: str = "rwr",
) -> BiasReport:
    """Run the full attribution pipeline on a normalized dataset.

    Stages: comparability graph -> symmetric normalization -> proximity
    (`similarity`="rwr" solves the walk exactly; "adjacency" uses the
    row-normalized graph directly) -> credibility -> bias -> per-sample
    records with top-`top_k` explanations (`top_k` <= 0 skips them).
    The report keeps the proximity so later stages can reuse it.
    Deterministic throughout.
    """
    graph = build_comparability_graph(d, cfg)
    if similarity == "rwr":
        q = rwr_proximity(symmetric_normalize(graph), damping=damping)
    elif similarity == "adjacency":
        q = adjacency_similarity(graph)
    else:
        raise ValueError(f"unknown similarity {similarity!r}")
    cred = estimate_credibility(d, q)
    bias = estimate_bias(d, q, cred)
    records = []
    for i in range(d.n):
        if bias.defined[i] and top_k > 0:
            explanations = tuple(bias_contributions(d, q, cred, i, top_k))
        else:
            explanations = ()
        records.append(
            BiasRecord(
                index=i,
                group=int(d.groups[i]),
                label=int(d.labels[i]),
                credibility=float(cred.values[i]),
                bias=float(bias.values[i]),
                defined=bool(bias.defined[i]),
                explanations=explanations,
            )
        )
    return BiasReport(credibility=cred, bias=bias, records=tuple(records), similarity=q)
