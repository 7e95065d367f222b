"""Synthetic two-group datasets with injected discrimination and known ground truth.

Both groups draw features from the same uniform distribution on
[0, 1]^dim and are labeled by a shared linear boundary rule. Group 1 is
the reference group and always keeps rule labels. Group-level
discrimination shifts the boundary threshold for the target group
(group 0); individual-level discrimination flips a random fraction of
target-group labels. The ground-truth flag marks target-group samples
whose recorded label deviates from the reference rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attribution import BIAS_THRESHOLD, Estimate
from .data import Dataset, FeatureSchema

_THRESHOLD = 0.5  # of the reference rule, as SynthConfig says


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings. The reference rule labels x positive where
    `boundary_weights @ x >= 0.5`; under group bias the target group needs
    `0.5 + group_shift`."""

    n_per_group: int = 500
    dim: int = 2
    boundary_weights: tuple = (1.0, 0.0)
    group_shift: float = 0.2
    flip_rate: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if len(self.boundary_weights) != self.dim:
            raise ValueError("boundary weight length must equal the feature dimension")
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError("flip rate must lie in [0, 1]")


def _rule_labels(features, cfg: SynthConfig):
    return (features @ np.asarray(cfg.boundary_weights) >= _THRESHOLD).astype(int)


def generate_base(cfg: SynthConfig) -> Dataset:
    """Unbiased two-group dataset: shared sampler, shared labeling rule.

    The reference group (encoded 1) occupies the first n_per_group rows.
    """
    rng = np.random.default_rng(cfg.seed)
    reference = rng.uniform(size=(cfg.n_per_group, cfg.dim))
    target = rng.uniform(size=(cfg.n_per_group, cfg.dim))
    features = np.vstack([reference, target])
    labels = _rule_labels(features, cfg)
    groups = np.concatenate(
        [np.ones(cfg.n_per_group, dtype=int), np.zeros(cfg.n_per_group, dtype=int)]
    )
    schema = FeatureSchema(
        numerical_names=tuple(f"x{i + 1}" for i in range(cfg.dim)),
        categorical_names=(),
        label_name="y",
        group_name="s",
    )
    return Dataset(schema, features, np.zeros((2 * cfg.n_per_group, 0), dtype=int), labels, groups)


def inject_group_bias(d: Dataset, cfg: SynthConfig):
    """Relabel the target group with a shifted threshold; mark rule deviations.

    Returns (dataset, truth). Target-group samples with boundary margin
    in [0.5, 0.5 + group_shift) lose their positive label and are
    marked biased; the reference group is untouched.
    """
    margin = d.numericals @ np.asarray(cfg.boundary_weights)
    target = d.groups == 0
    shifted = (margin >= _THRESHOLD + cfg.group_shift).astype(int)
    labels = np.where(target, shifted, d.labels)
    truth = target & (labels != _rule_labels(d.numericals, cfg))
    return replace(d, labels=labels), truth


def inject_individual_bias(d: Dataset, cfg: SynthConfig):
    """Flip the labels of a random fraction of target-group samples; mark them.

    Exactly floor(flip_rate * n_target) indices are drawn without
    replacement under the config seed.
    """
    rng = np.random.default_rng(cfg.seed)
    target_idx = np.nonzero(d.groups == 0)[0]
    n_flip = math.floor(cfg.flip_rate * len(target_idx))
    flip_idx = rng.choice(target_idx, size=n_flip, replace=False)
    labels = d.labels.copy()
    labels[flip_idx] = 1 - labels[flip_idx]
    truth = np.zeros(d.n, dtype=bool)
    truth[flip_idx] = True
    return replace(d, labels=labels), truth


def reference_labels(d: Dataset, cfg: SynthConfig):
    """Labels every row would carry under the reference rule (the fair world)."""
    return _rule_labels(d.numericals, cfg)


def detection_accuracy(b: Estimate, truth, groups) -> float:
    """Accuracy of the bias > `BIAS_THRESHOLD` detector against ground truth, target group only.

    Undefined bias counts as not biased.
    """
    truth = np.asarray(truth, dtype=bool)
    mask = np.asarray(groups) == 0
    flagged = b.filled > BIAS_THRESHOLD
    return float((flagged[mask] == truth[mask]).mean())


def save_truth(truth, path) -> None:
    """Write the ground-truth flags as one 0/1 per line, row order."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in np.asarray(truth, dtype=int):
            fh.write(f"{t}\n")
