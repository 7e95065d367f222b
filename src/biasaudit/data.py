"""Tabular dataset loading, validation, normalization, encoding, and splitting.

Datasets are immutable once constructed: every operation returns a new
object, rebuilt with `dataclasses.replace`, which shares the columns it
does not change, since `_freeze` keeps a read-only array that owns its
data and copies anything else. Text is read and written a column at a
time. Categorical, label and group cells share one token codec, and
`save_dataset` writes each of those columns back in the tokens it was
read from. Numerical features are expected to be min-max scaled to
[0, 1] before any graph or attribution step; `fit_normalization` /
`apply_normalization` implement that scaling with train-only fitting.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

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


def _freeze(obj, name, dtype=float):
    """Set obj.name to itself if a read-only dtype array owning its data, else a frozen copy."""
    value = getattr(obj, name)
    if not (isinstance(value, np.ndarray) and value.dtype == dtype and value.base is None
            and not value.flags.writeable):
        value = np.array(value, dtype=dtype)
        value.setflags(write=False)
    object.__setattr__(obj, name, value)
    return value


def _sample_indices(idx, n, what="sample index") -> np.ndarray:
    """`idx`, any shape, as ints; its first bool (a list's too), float, negative or,
    unless n is None, int from n up is an IndexError."""
    if not isinstance(idx, np.ndarray):  # the cast to an array would read a bool as 0 or 1
        bools = [x for x in np.asarray(idx, dtype=object).flat if isinstance(x, (bool, np.bool_))]
        if bools:
            raise IndexError(f"{what} {bools[0]} is a bool, not an integer")
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":
        raise IndexError(f"{what} {idx.flat[0]} is a {idx.dtype}, not an integer")
    outside = idx[(idx < 0) | (idx >= n)] if n is not None else idx[idx < 0]
    if len(outside):
        bound = "" if n is None else f" for {n} samples"
        raise IndexError(f"{what} {outside[0]} out of range{bound}")
    return idx.astype(int, copy=False)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable sample table: normalized numericals, coded categoricals, binary label/group.

    `category_levels[f][code]` is the original token of categorical
    feature f for integer code `code`; codes are assigned in first
    appearance order when loading from text. `label_tokens[code]` and
    `group_tokens[code]` are the tokens the binary columns are written
    back in. The four arrays are held by `_freeze`.
    """

    schema: FeatureSchema
    numericals: np.ndarray
    categoricals: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    category_levels: tuple = None
    label_tokens: tuple = ("0", "1")
    group_tokens: tuple = ("0", "1")

    def __post_init__(self):
        num, cat = _freeze(self, "numericals"), _freeze(self, "categoricals", int)
        lab, grp = _freeze(self, "labels", int), _freeze(self, "groups", int)
        if num.ndim != 2 or cat.ndim != 2:
            raise ValidationError("numerical and categorical columns must be 2-D arrays")
        n = len(lab)
        if not (num.shape[0] == cat.shape[0] == len(grp) == n):
            raise ValidationError("column lengths disagree")
        if num.shape[1] != len(self.schema.numerical_names):
            raise ValidationError("numerical width does not match schema")
        if cat.shape[1] != len(self.schema.categorical_names):
            raise ValidationError("categorical width does not match schema")
        for name, vec in ((self.schema.label_name, lab), (self.schema.group_name, grp)):
            if vec.size and (vec.min() < 0 or vec.max() > 1):
                raise ValidationError(f"column {name!r} contains values outside {{0, 1}}")
        if self.category_levels is None:  # programmatic data: codes 0..max are their tokens
            levels = tuple(tuple(str(c) for c in range(int(col.max()) + 1 if n else 0))
                           for col in cat.T)
        else:
            levels = tuple(tuple(lv) for lv in self.category_levels)
        if len(levels) != cat.shape[1]:
            raise ValidationError("category levels do not match the categorical columns")
        for name, lv, col in zip(self.schema.categorical_names, levels, cat.T):
            if n and (col.min() < 0 or col.max() >= len(lv)):
                raise ValidationError(f"column {name!r} has codes outside its {len(lv)} levels")
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
        """Row subset in the given index order (duplicates allowed), by `_sample_indices`."""
        idx = _sample_indices(indices, self.n)
        return replace(self, numericals=self.numericals[idx], categoricals=self.categoricals[idx],
                       labels=self.labels[idx], groups=self.groups[idx])

    def decode_categoricals(self) -> np.ndarray:
        """The categorical codes as their tokens: an (n, n_categorical) object array."""
        tokens = np.empty(self.categoricals.shape, dtype=object)
        for j, levels in enumerate(self.category_levels):
            tokens[:, j] = np.array(levels, dtype=object)[self.categoricals[:, j]]
        return tokens


@dataclass(frozen=True, eq=False)
class NormalizationParams:
    """Per-numerical-feature (min, max) pairs fitted on training data, held by `_freeze`."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if (_freeze(self, "maxs") < _freeze(self, "mins")).any():
            raise ValidationError("normalization max < min")


_strip = np.frompyfunc(str.strip, 1, 1)


def _encode(tokens):
    """A column's distinct tokens in first-appearance order, and each cell's code."""
    cells = tokens.tolist()
    distinct = list(dict.fromkeys(cells))  # hashing: np.unique would sort str objects
    code = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(code.__getitem__, cells), dtype=int, count=len(cells))


def _binary(tokens, declared_one, column, path):
    """A label or group column's (code 0, code 1) tokens and its codes.

    A declared token is code 1, the other token (or "0" if none) code 0.
    Without one, every token must read as the integer 0 or 1.
    """
    distinct, codes = _encode(tokens)
    if declared_one is not None:
        if len(distinct) > 2:
            raise ValidationError(
                f"{path}: column {column!r} has {len(distinct)} distinct values, expected binary"
            )
        if declared_one not in distinct:
            raise ValidationError(
                f"{path}: declared token {declared_one!r} never appears in column {column!r}"
            )
        other = [t for t in distinct if t != declared_one] or ["0"]
        return (other[0], declared_one), np.array([t == declared_one for t in distinct],
                                                  dtype=int)[codes]
    bits = []
    for t in distinct:
        try:
            bits.append(int(t) if int(t) in (0, 1) else -1)
        except ValueError:
            bits.append(-1)
    bits = np.array(bits, dtype=int)[codes]
    bad = np.flatnonzero(bits < 0)
    if bad.size:
        r = bad[0]
        raise ValidationError(
            f"{path}: column {column!r} value {tokens[r]!r} at row {r} is outside {{0, 1}}"
        )
    return ("0", "1"), bits


def _floats(cells, column, path):
    """Parse a numerical column as `float` does; every value must be finite."""
    try:
        values = cells.astype(float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for r, token in enumerate(cells):  # the column is bad: name its first bad cell
        try:
            if np.isfinite(float(token)):
                continue
            problem = "non-finite"
        except ValueError:
            problem = "non-numeric"
        raise ParseError(f"{path}: {problem} value {token!r} in column {column!r} at row {r}")


def load_dataset(path, schema: FeatureSchema) -> Dataset:
    """Load a comma-separated text file with a header row under the given schema.

    Rows keep file order. Categorical codes are assigned per column in
    first-appearance order. Each declared column must appear exactly
    once in the header. Missing cells are a hard error; there is no
    imputation. Numerical cells must be finite (no nan or inf).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    header = [h.strip() for h in header]

    needed = [*schema.numerical_names, *schema.categorical_names,
              schema.label_name, schema.group_name]
    for name in needed:
        count = header.count(name)
        if count == 0:
            raise SchemaError(f"{path}: declared column {name!r} not found in header")
        if count > 1:
            raise SchemaError(f"{path}: declared column {name!r} appears {count} times in header")

    # Rows before the first ragged one, needed columns only, as stripped
    # str objects: numpy's own string types would drop or strip NULs.
    widths = np.fromiter(map(len, rows), dtype=int, count=len(rows))
    ragged = np.flatnonzero(widths != len(header))
    n = ragged[0] if ragged.size else len(rows)
    table = np.array(rows[:n], dtype=object).reshape(n, len(header))
    cells = _strip(table[:, [header.index(name) for name in needed]])

    # The first bad row in file order; within a row, width before a missing cell.
    missing = cells == ""
    holes = np.flatnonzero(missing.any(axis=1))
    if holes.size:
        r = holes[0]
        raise ValidationError(
            f"{path}: missing value in column {needed[missing[r].argmax()]!r} at row {r}"
        )
    if ragged.size:
        raise ParseError(f"{path}: row {n} has {widths[n]} fields, header has {len(header)}")

    p, q = len(schema.numerical_names), len(schema.categorical_names)
    numericals = np.empty((n, p))
    for j, name in enumerate(schema.numerical_names):
        numericals[:, j] = _floats(cells[:, j], name, path)
    categoricals = np.empty((n, q), dtype=int)
    levels = []
    for j in range(q):
        distinct, categoricals[:, j] = _encode(cells[:, p + j])
        levels.append(tuple(distinct))
    label_tokens, labels = _binary(cells[:, -2], schema.favorable, schema.label_name, path)
    group_tokens, groups = _binary(cells[:, -1], schema.privileged, schema.group_name, path)
    return Dataset(schema, numericals, categoricals, labels, groups, tuple(levels),
                   label_tokens, group_tokens)


def save_dataset(d: Dataset, path) -> None:
    """Write a dataset as comma-separated text in its tokens, as `load_dataset` reads it."""
    header = [*d.schema.numerical_names, *d.schema.categorical_names,
              d.schema.group_name, d.schema.label_name]
    table = np.hstack([
        d.numericals.astype(object),  # Python floats, which csv writes as their repr
        d.decode_categoricals(),
        np.array(d.group_tokens, dtype=object)[d.groups, None],
        np.array(d.label_tokens, dtype=object)[d.labels, None],
    ])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())


def load_schema(path) -> FeatureSchema:
    """Parse a plain-text key/value schema descriptor.

    Recognized keys: numerical, categorical (comma-separated lists),
    label, group, favorable, privileged, each at most once. Lines starting
    with '#' are comments.
    """
    fields = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SchemaError(f"{path}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key in fields:
                raise SchemaError(f"{path}: repeated schema key {key!r}")
            if key in ("numerical", "categorical"):
                fields[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            elif key in ("label", "group", "favorable", "privileged"):
                fields[key] = value
            else:
                raise SchemaError(f"{path}: unknown schema key {key!r}")
    for required in ("label", "group"):
        if required not in fields:
            raise SchemaError(f"{path}: missing {required!r} entry")
    fields = {"numerical": (), "categorical": (), "favorable": None, "privileged": None, **fields}
    return FeatureSchema(fields["numerical"], fields["categorical"], fields["label"],
                         fields["group"], fields["favorable"], fields["privileged"])


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
    return NormalizationParams(train.numericals.min(axis=0), train.numericals.max(axis=0))


def apply_normalization(d: Dataset, params: NormalizationParams) -> Dataset:
    """Map each numerical value v to (v - min) / (max - min), clipped to [0, 1].

    Constant training columns (max == min) map to 0 everywhere.
    """
    span = params.maxs - params.mins
    scaled = d.numericals - params.mins  # fresh, so the steps below run in place
    scaled /= np.where(span > 0, span, 1.0)
    scaled[:, ~(span > 0)] = 0.0
    return replace(d, numericals=np.clip(scaled, 0.0, 1.0, out=scaled))


def invert_normalization(d: Dataset, params: NormalizationParams) -> Dataset:
    """Map normalized numericals back to raw units (v * (max - min) + min).

    Values that were clipped on the way in cannot be recovered; they map
    to the corresponding training extreme.
    """
    raw = d.numericals * (params.maxs - params.mins)
    raw += params.mins
    return replace(d, numericals=raw)


def encode_features(d: Dataset) -> np.ndarray:
    """One-hot encode categoricals and assemble the read-only model input matrix.

    Column order: numericals in schema order, then one one-hot block per
    categorical feature (category order = code order), then the group
    column last.
    """
    onehots = [np.eye(len(levels))[d.categoricals[:, j]]
               for j, levels in enumerate(d.category_levels)]
    matrix = np.hstack([d.numericals, *onehots, d.groups.reshape(-1, 1).astype(float)])
    matrix.setflags(write=False)
    return matrix


# Folds of `stratified_split`; with fewer than three, a partition's train part
# would hold no fold.
_FOLDS = 5


def stratified_split(d: Dataset, seed: int):
    """Deterministic 5-fold partitions stratified jointly on (label, group).

    Returns five partitions; partition k uses fold k as test, fold k+1
    as validation, and the remaining three folds as train. If any
    nonempty (label, group) cell has fewer members than folds, a
    warning is emitted and stratification degrades to label only.
    """
    folds = _FOLDS
    if d.n < folds:
        raise ValidationError(f"need at least {folds} samples, got {d.n}")
    cell = 2 * d.labels + d.groups
    sizes = np.bincount(cell, minlength=4)
    if ((sizes > 0) & (sizes < folds)).any():
        warnings.warn(
            "a (label, group) cell has fewer members than folds; "
            "degrading to label-only stratification",
            stacklevel=2,
        )
        cell = d.labels
        sizes = np.bincount(cell)

    # Each nonempty cell, in key order, is shuffled and dealt round-robin
    # from fold 0.
    rng = np.random.default_rng(seed)
    members = np.argsort(cell, kind="stable")
    fold = np.empty(d.n, dtype=int)
    for cell_members in np.split(members, np.cumsum(sizes)[:-1]):
        if len(cell_members):
            rng.shuffle(cell_members)
            fold[cell_members] = np.arange(len(cell_members)) % folds
    fold_arrays = [np.flatnonzero(fold == k) for k in range(folds)]

    partitions = []
    for k in range(folds):
        train = [fold_arrays[j] for j in range(folds) if j not in (k, (k + 1) % folds)]
        partitions.append((np.sort(np.concatenate(train)), fold_arrays[(k + 1) % folds],
                           fold_arrays[k]))
    return partitions
