"""Seeded inputs and `biasaudit` command lines for the benchmark workloads.

Each workload is one CLI command on one generated table. The same seed
always writes the same bytes, and the CLI sees only the written files.

- audit-numeric: `attribute` with the random-walk proximity on the
  `synth` individual-bias set. The walk dominates, so this is where a
  faster proximity solve shows.
- audit-census: `attribute --similarity adjacency` on an Adult-like
  mixed table. The walk is bypassed, so the comparability graph and
  the attribution masks and explain loop dominate.
- mitigate-aug: `mitigate --strategy aug` on the `synth` group-bias
  set. It reads proximity rows for neighbour ranking instead of
  aggregating them, builds the graph and proximity twice, and adds the
  mitigation, model and metrics layers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "numeric" | "census" | "mitigate"
    n: int  # rows of the generated table
    budget: int = 0  # mitigate only

    @property
    def t_r(self) -> float:
        # keeps the mean degree near 150 on the synth sets at any size
        if self.kind == "census":
            return 0.1
        return 0.1 * math.sqrt(2000 / (self.n // 2))

    def cli_args(self, input_dir: Path, out_dir: Path) -> list:
        """Arguments after `python -m biasaudit.cli`."""
        files = ["--input", str(input_dir / "data.csv"),
                 "--schema", str(input_dir / "schema.txt"),
                 "--out", str(out_dir), "--tr", repr(self.t_r), "--td", "2"]
        if self.kind == "numeric":
            return ["attribute", *files, "--damping", "0.1", "--similarity", "rwr", "--topk", "5"]
        if self.kind == "census":
            return ["attribute", *files, "--similarity", "adjacency"]
        return ["mitigate", *files, "--damping", "0.1", "--strategy", "aug",
                "--budget", str(self.budget), "--neighbors", "5",
                "--control", "random", "--seed", "0"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit-numeric", "numeric", n=4000),
        Workload("audit-census", "census", n=8000),
        Workload("mitigate-aug", "mitigate", n=4000, budget=200),
    )
}

# Smoke sizes for the self-check: same code paths, a second or two each.
SMOKE = {
    "audit-numeric": Workload("audit-numeric", "numeric", n=400),
    "audit-census": Workload("audit-census", "census", n=600),
    "mitigate-aug": Workload("mitigate-aug", "mitigate", n=400, budget=20),
}

CENSUS_CATEGORIES = {  # feature -> number of levels
    "workclass": 7,
    "education": 8,
    "marital": 5,
    "occupation": 6,
    "race": 3,
}


def _census_table(n: int, seed: int):
    """Adult-like table: 2 integer numericals, 5 Zipf-skewed categoricals.

    Labels follow one rule shared by both groups; 10% of group-0 labels
    are then flipped, and those rows are the ground truth.
    """
    rng = np.random.default_rng(seed)
    age = rng.integers(17, 91, size=n)
    hours = np.clip(np.rint(rng.normal(40.0, 10.0, size=n)), 1, 99).astype(int)
    cats = {}
    for name, k in CENSUS_CATEGORIES.items():
        p = 1.0 / np.arange(1, k + 1) ** 1.2
        cats[name] = rng.choice(k, size=n, p=p / p.sum())
    sex = (rng.random(n) < 0.5).astype(int)
    score = ((age - 17) / 73 + (hours - 40) / 60
             + 0.3 * (cats["education"] <= 1) + 0.3 * (cats["marital"] == 0))
    labels = (score >= 0.8).astype(int)
    target = np.nonzero(sex == 0)[0]
    flip = rng.choice(target, size=len(target) // 10, replace=False)
    labels[flip] = 1 - labels[flip]
    truth = np.zeros(n, dtype=bool)
    truth[flip] = True

    header = ["age", "hours", *CENSUS_CATEGORIES, "sex", "income"]
    lines = [",".join(header)]
    for i in range(n):
        row = [str(age[i]), str(hours[i])]
        row += [f"{name[:3]}{cats[name][i]}" for name in CENSUS_CATEGORIES]
        row += ["Male" if sex[i] else "Female", ">50K" if labels[i] else "<=50K"]
        lines.append(",".join(row))
    schema = (
        "numerical = age, hours\n"
        f"categorical = {', '.join(CENSUS_CATEGORIES)}\n"
        "label = income\ngroup = sex\nfavorable = >50K\nprivileged = Male\n"
    )
    return "\n".join(lines) + "\n", schema, truth


def generate(w: Workload, seed: int, input_dir: Path) -> dict:
    """Write data.csv, schema.txt and truth.txt for one seed; return their hashes."""
    from biasaudit.data import save_dataset, save_schema
    from biasaudit.synth import (SynthConfig, generate_base, inject_group_bias,
                                 inject_individual_bias, save_truth)

    input_dir.mkdir(parents=True, exist_ok=True)
    if w.kind == "census":
        data, schema, truth = _census_table(w.n, seed)
        (input_dir / "data.csv").write_text(data, encoding="utf-8")
        (input_dir / "schema.txt").write_text(schema, encoding="utf-8")
        save_truth(truth, input_dir / "truth.txt")
    else:
        cfg = SynthConfig(n_per_group=w.n // 2, dim=2, boundary_weights=(1.0, 0.0),
                          group_shift=0.2, flip_rate=0.10, seed=seed)
        base = generate_base(cfg)
        inject = inject_individual_bias if w.kind == "numeric" else inject_group_bias
        d, truth = inject(base, cfg)
        save_dataset(d, input_dir / "data.csv")
        save_schema(d.schema, input_dir / "schema.txt")
        save_truth(truth, input_dir / "truth.txt")

    files = {}
    for name in ("data.csv", "schema.txt", "truth.txt"):
        blob = (input_dir / name).read_bytes()
        files[name] = {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    return files
