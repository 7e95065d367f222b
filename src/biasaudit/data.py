"""Tabular dataset loading, validation, normalization, encoding, and splitting.

Datasets are immutable once constructed: every operation returns a new
object. Numerical features are expected to be min-max scaled to [0, 1]
before any graph or attribution step; `fit_normalization` /
`apply_normalization` implement that scaling with train-only fitting.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np


class SchemaError(ValueError):
    """A declared column is missing or the schema itself is inconsistent."""


class ParseError(ValueError):
    """A cell could not be parsed as its declared type."""


class ValidationError(ValueError):
    """Parsed values violate the dataset contract (binary columns, missing cells)."""


@dataclass(frozen=True)
class FeatureSchema:
    """Column roles for a tabular dataset.

    `favorable` / `privileged` are the raw tokens mapped to label 1 and
    group 1 when loading from text; when omitted, those columns must
    already contain 0/1 values.
    """

    numerical_names: tuple
    categorical_names: tuple
    label_name: str
    group_name: str
    favorable: str | None = None
    privileged: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "numerical_names", tuple(self.numerical_names))
        object.__setattr__(self, "categorical_names", tuple(self.categorical_names))
        feats = self.numerical_names + self.categorical_names
        if len(feats) == 0:
            raise SchemaError("schema declares no features")
        if len(set(feats)) != len(feats):
            raise SchemaError("numerical and categorical feature names overlap")
        for special in (self.label_name, self.group_name):
            if special in feats:
                raise SchemaError(f"column {special!r} is declared both special and feature")
        if self.label_name == self.group_name:
            raise SchemaError("label and group columns must differ")


@dataclass(frozen=True)
class Dataset:
    """Immutable sample table: normalized numericals, coded categoricals, binary label/group.

    `category_levels[f][code]` is the original token of categorical
    feature f for integer code `code`; codes are assigned in first
    appearance order when loading from text.
    """

    schema: FeatureSchema
    numericals: np.ndarray
    categoricals: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    category_levels: tuple = field(default=None)

    def __post_init__(self):
        num = np.asarray(self.numericals, dtype=float)
        if num.ndim == 1 and num.size:
            num = num.reshape(-1, 1)
        cat = np.asarray(self.categoricals, dtype=int)
        if cat.ndim == 1 and cat.size:
            cat = cat.reshape(-1, 1)
        lab = np.asarray(self.labels, dtype=int)
        grp = np.asarray(self.groups, dtype=int)
        n = len(lab)
        if num.size == 0 and num.shape != (n, len(self.schema.numerical_names)):
            num = num.reshape(n, 0)
        if cat.size == 0 and cat.shape != (n, len(self.schema.categorical_names)):
            cat = cat.reshape(n, 0)
        if not (num.shape[0] == cat.shape[0] == len(grp) == n):
            raise ValidationError("column lengths disagree")
        if num.shape[1] != len(self.schema.numerical_names):
            raise ValidationError("numerical width does not match schema")
        if cat.shape[1] != len(self.schema.categorical_names):
            raise ValidationError("categorical width does not match schema")
        for name, vec in ((self.schema.label_name, lab), (self.schema.group_name, grp)):
            if vec.size and not np.isin(vec, (0, 1)).all():
                raise ValidationError(f"column {name!r} contains values outside {{0, 1}}")
        levels = self.category_levels
        if levels is None:
            # default levels for programmatically built data: codes 0..max
            levels = tuple(
                tuple(str(c) for c in range(int(cat[:, j].max()) + 1 if n else 0))
                for j in range(cat.shape[1])
            )
        else:
            levels = tuple(tuple(lv) for lv in levels)
        for arr in (num, cat, lab, grp):
            arr.setflags(write=False)
        object.__setattr__(self, "numericals", num)
        object.__setattr__(self, "categoricals", cat)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "groups", grp)
        object.__setattr__(self, "category_levels", levels)

    @property
    def n(self):
        return len(self.labels)

    @property
    def n_numerical(self):
        return self.numericals.shape[1]

    @property
    def n_categorical(self):
        return self.categoricals.shape[1]

    def subset(self, indices) -> "Dataset":
        """Row subset in the given index order (duplicates allowed)."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            schema=self.schema,
            numericals=self.numericals[idx],
            categoricals=self.categoricals[idx],
            labels=self.labels[idx],
            groups=self.groups[idx],
            category_levels=self.category_levels,
        )

    def equals(self, other: "Dataset") -> bool:
        return (
            self.schema == other.schema
            and self.category_levels == other.category_levels
            and np.array_equal(self.numericals, other.numericals)
            and np.array_equal(self.categoricals, other.categoricals)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.groups, other.groups)
        )


@dataclass(frozen=True)
class NormalizationParams:
    """Per-numerical-feature (min, max) pairs fitted on training data."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=float)
        maxs = np.asarray(self.maxs, dtype=float)
        if (maxs < mins).any():
            raise ValidationError("normalization max < min")
        for arr in (mins, maxs):
            arr.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)


@dataclass(frozen=True)
class DesignMatrix:
    """Dense model-input matrix.

    `group_col` is the index of the sensitive-attribute column, or None
    when the matrix was built without it.
    """

    matrix: np.ndarray
    group_col: int | None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def _map_binary(tokens, declared_one, column, path):
    distinct = list(dict.fromkeys(tokens))
    if declared_one is not None:
        if len(distinct) > 2:
            raise ValidationError(
                f"{path}: column {column!r} has {len(distinct)} distinct values, expected binary"
            )
        if declared_one not in distinct:
            raise ValidationError(
                f"{path}: declared token {declared_one!r} never appears in column {column!r}"
            )
        return np.array([1 if t == declared_one else 0 for t in tokens], dtype=int)
    out = np.empty(len(tokens), dtype=int)
    for i, t in enumerate(tokens):
        try:
            v = int(t)
        except ValueError:
            v = -1
        if v not in (0, 1):
            raise ValidationError(
                f"{path}: column {column!r} value {t!r} at row {i} is outside {{0, 1}}"
            )
        out[i] = v
    return out


def load_dataset(path, schema: FeatureSchema, sep: str = ",") -> Dataset:
    """Load a delimited text file with a header row under the given schema.

    Rows keep file order. Categorical codes are assigned per column in
    first-appearance order. Missing cells are a hard error; there is no
    imputation. Numerical cells must be finite (no nan or inf).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=sep)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [[cell.strip() for cell in row] for row in reader if row]

    needed = (
        list(schema.numerical_names)
        + list(schema.categorical_names)
        + [schema.label_name, schema.group_name]
    )
    col_index = {}
    for name in needed:
        if name not in header:
            raise SchemaError(f"{path}: declared column {name!r} not found in header")
        col_index[name] = header.index(name)

    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {r} has {len(row)} fields, header has {len(header)}")
        for name in needed:
            if row[col_index[name]] == "":
                raise ValidationError(f"{path}: missing value in column {name!r} at row {r}")

    n = len(rows)
    numericals = np.zeros((n, len(schema.numerical_names)))
    for j, name in enumerate(schema.numerical_names):
        c = col_index[name]
        for r, row in enumerate(rows):
            try:
                numericals[r, j] = float(row[c])
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric value {row[c]!r} in column {name!r} at row {r}"
                ) from None
            if not np.isfinite(numericals[r, j]):
                raise ParseError(
                    f"{path}: non-finite value {row[c]!r} in column {name!r} at row {r}"
                )

    categoricals = np.zeros((n, len(schema.categorical_names)), dtype=int)
    levels = []
    for j, name in enumerate(schema.categorical_names):
        c = col_index[name]
        seen = {}
        for r, row in enumerate(rows):
            tok = row[c]
            if tok not in seen:
                seen[tok] = len(seen)
            categoricals[r, j] = seen[tok]
        levels.append(tuple(seen))

    labels = _map_binary([row[col_index[schema.label_name]] for row in rows],
                         schema.favorable, schema.label_name, path)
    groups = _map_binary([row[col_index[schema.group_name]] for row in rows],
                         schema.privileged, schema.group_name, path)

    return Dataset(schema, numericals, categoricals, labels, groups, tuple(levels))


def save_dataset(d: Dataset, path, sep: str = ",") -> None:
    """Write a dataset back to delimited text, decoding categorical codes."""
    header = (
        list(d.schema.numerical_names)
        + list(d.schema.categorical_names)
        + [d.schema.group_name, d.schema.label_name]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=sep)
        writer.writerow(header)
        for i in range(d.n):
            row = [repr(float(v)) for v in d.numericals[i]]
            row += [d.category_levels[j][d.categoricals[i, j]] for j in range(d.n_categorical)]
            row += [str(d.groups[i]), str(d.labels[i])]
            writer.writerow(row)


def load_schema(path) -> FeatureSchema:
    """Parse a plain-text key/value schema descriptor.

    Recognized keys: numerical, categorical (comma-separated lists),
    label, group, favorable, privileged. Lines starting with '#' are
    comments.
    """
    fields = {"numerical": (), "categorical": (), "favorable": None, "privileged": None}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"{path}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key in ("numerical", "categorical"):
                fields[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            elif key in ("label", "group", "favorable", "privileged"):
                fields[key] = value
            else:
                raise SchemaError(f"{path}: unknown schema key {key!r}")
    for required in ("label", "group"):
        if required not in fields:
            raise SchemaError(f"{path}: missing {required!r} entry")
    return FeatureSchema(
        numerical_names=fields["numerical"],
        categorical_names=fields["categorical"],
        label_name=fields["label"],
        group_name=fields["group"],
        favorable=fields["favorable"],
        privileged=fields["privileged"],
    )


def save_schema(schema: FeatureSchema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"numerical = {', '.join(schema.numerical_names)}\n")
        fh.write(f"categorical = {', '.join(schema.categorical_names)}\n")
        fh.write(f"label = {schema.label_name}\n")
        fh.write(f"group = {schema.group_name}\n")
        if schema.favorable is not None:
            fh.write(f"favorable = {schema.favorable}\n")
        if schema.privileged is not None:
            fh.write(f"privileged = {schema.privileged}\n")


def fit_normalization(train: Dataset) -> NormalizationParams:
    """Per-feature (min, max) over the training split only."""
    if train.n == 0:
        raise ValidationError("cannot fit normalization on an empty dataset")
    return NormalizationParams(
        mins=train.numericals.min(axis=0) if train.n_numerical else np.zeros(0),
        maxs=train.numericals.max(axis=0) if train.n_numerical else np.zeros(0),
    )


def apply_normalization(d: Dataset, params: NormalizationParams) -> Dataset:
    """Map each numerical value v to (v - min) / (max - min), clipped to [0, 1].

    Constant training columns (max == min) map to 0 everywhere.
    """
    span = params.maxs - params.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (d.numericals - params.mins) / safe
    scaled = np.where(span > 0, scaled, 0.0)
    scaled = np.clip(scaled, 0.0, 1.0)
    return Dataset(d.schema, scaled, d.categoricals, d.labels, d.groups, d.category_levels)


def invert_normalization(d: Dataset, params: NormalizationParams) -> Dataset:
    """Map normalized numericals back to raw units (v * (max - min) + min).

    Values that were clipped on the way in cannot be recovered; they map
    to the corresponding training extreme.
    """
    raw = d.numericals * (params.maxs - params.mins) + params.mins
    return Dataset(d.schema, raw, d.categoricals, d.labels, d.groups, d.category_levels)


def encode_features(d: Dataset, include_group: bool = True) -> DesignMatrix:
    """One-hot encode categoricals and assemble the model input matrix.

    Column order: numericals in schema order, then one one-hot block per
    categorical feature (category order = code order), then the group
    column when `include_group` is set.
    """
    blocks = [d.numericals]
    for j in range(d.n_categorical):
        onehot = np.zeros((d.n, len(d.category_levels[j])))
        onehot[np.arange(d.n), d.categoricals[:, j]] = 1.0
        blocks.append(onehot)
    group_col = None
    if include_group:
        blocks.append(d.groups.reshape(-1, 1).astype(float))
        group_col = sum(b.shape[1] for b in blocks) - 1
    return DesignMatrix(np.hstack(blocks), group_col)


def stratified_split(d: Dataset, seed: int, folds: int = 5):
    """Deterministic k-fold partitions stratified jointly on (label, group).

    Returns `folds` partitions; partition k uses fold k as test, fold
    k+1 as validation, and the remaining folds as train (3/1/1 for the
    default 5 folds). If any nonempty (label, group) cell has fewer
    members than `folds`, a warning is emitted and stratification
    degrades to label only.
    """
    if d.n < folds:
        raise ValidationError(f"need at least {folds} samples, got {d.n}")
    strata_keys = [(int(y), int(s)) for y, s in zip(d.labels, d.groups)]
    cells = {}
    for i, key in enumerate(strata_keys):
        cells.setdefault(key, []).append(i)
    if any(0 < len(members) < folds for members in cells.values()):
        warnings.warn(
            "a (label, group) cell has fewer members than folds; "
            "degrading to label-only stratification",
            stacklevel=2,
        )
        cells = {}
        for i, y in enumerate(d.labels):
            cells.setdefault(int(y), []).append(i)

    rng = np.random.default_rng(seed)
    fold_members = [[] for _ in range(folds)]
    for key in sorted(cells):
        members = np.array(cells[key], dtype=int)
        rng.shuffle(members)
        for pos, idx in enumerate(members):
            fold_members[pos % folds].append(int(idx))
    fold_arrays = [np.array(sorted(m), dtype=int) for m in fold_members]

    partitions = []
    for k in range(folds):
        test = fold_arrays[k]
        valid = fold_arrays[(k + 1) % folds]
        train = np.concatenate(
            [fold_arrays[j] for j in range(folds) if j not in (k, (k + 1) % folds)]
        )
        partitions.append((np.sort(train), valid, test))
    return partitions
