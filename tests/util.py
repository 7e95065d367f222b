"""Shared construction helpers for the test suite."""

import numpy as np
from scipy import sparse

from biasaudit.attribution import Estimate
from biasaudit.data import Dataset, FeatureSchema
from biasaudit.similarity import StoredProximity


def make_dataset(num, cat, labels, groups, levels=None, num_names=None, cat_names=None):
    num = np.asarray(num, dtype=float)
    if num.ndim == 1:
        num = num.reshape(-1, 1)
    cat = np.asarray(cat, dtype=int)
    if cat.ndim == 1 and cat.size:
        cat = cat.reshape(-1, 1)
    if cat.size == 0:
        cat = cat.reshape(len(labels), 0)
    schema = FeatureSchema(
        numerical_names=num_names or tuple(f"x{i}" for i in range(num.shape[1])),
        categorical_names=cat_names or tuple(f"c{i}" for i in range(cat.shape[1])),
        label_name="y",
        group_name="s",
    )
    return Dataset(schema, num, cat, labels, groups, levels)


def estimate_of(values, defined=True):
    """An Estimate of `values`, undefined (NaN) where `defined` is False."""
    return Estimate(np.where(defined, values, np.nan))


def same_dataset(a, b):
    """Whether two datasets hold the same schema, tokens and columns."""
    return (
        a.schema == b.schema
        and a.category_levels == b.category_levels
        and a.label_tokens == b.label_tokens
        and a.group_tokens == b.group_tokens
        and all(np.array_equal(getattr(a, f), getattr(b, f))
                for f in ("numericals", "categoricals", "labels", "groups"))
    )


def random_dataset(rng, n, n_num=2, n_cat=1, n_levels=3):
    num = rng.random((n, n_num))
    cat = rng.integers(0, n_levels, size=(n, n_cat)) if n_cat else np.zeros((n, 0), dtype=int)
    labels = rng.integers(0, 2, size=n)
    groups = rng.integers(0, 2, size=n)
    return make_dataset(num, cat, labels, groups)


def random_instance(rng, n):
    """Random dataset with a symmetric positive similarity, every entry stored in a CSR."""
    d = random_dataset(rng, n, n_num=1, n_cat=0)
    raw = rng.random((n, n))
    q = (raw + raw.T) / 2
    np.fill_diagonal(q, rng.uniform(0.5, 1.0, size=n))
    return d, StoredProximity(sparse.csr_matrix(q))


def grid_argmin(weights, targets):
    """Independent oracle: scan the weighted squared-loss objective over a 1e-4 grid on [0, 1]."""
    grid = np.linspace(0.0, 1.0, 10_001)
    objective = (weights[None, :] * (grid[:, None] - targets[None, :]) ** 2).sum(axis=1)
    return grid[np.argmin(objective)]


def dense_oracle(w, p):
    """Q = (1 - p)(I - pW)^-1 for a sparse W, by one dense linear solve."""
    n = w.shape[0]
    return np.linalg.solve(np.eye(n) - p * w.toarray(), (1 - p) * np.eye(n))
