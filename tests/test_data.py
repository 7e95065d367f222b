import csv
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from biasaudit import data
from biasaudit.attribution import Estimate
from biasaudit.comparability import ComparabilityGraph
from biasaudit.data import (
    Dataset,
    FeatureSchema,
    ParseError,
    SchemaError,
    ValidationError,
    apply_normalization,
    encode_features,
    fit_normalization,
    invert_normalization,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    stratified_split,
)
from biasaudit.model import Classifier

from util import make_dataset, same_dataset


SCHEMA = FeatureSchema(("age",), ("job",), "income", "sex")


def per_sample_split(d, seed, folds=5):
    """Stratified k-fold built sample by sample with dicts and lists: the
    oracle for `stratified_split`. Also returns whether it fell back to
    label-only stratification."""
    if d.n < folds:
        raise ValidationError(f"need at least {folds} samples, got {d.n}")
    cells = {}
    for i, key in enumerate(zip(d.labels.tolist(), d.groups.tolist())):
        cells.setdefault(key, []).append(i)
    degraded = any(0 < len(members) < folds for members in cells.values())
    if degraded:
        cells = {}
        for i, y in enumerate(d.labels.tolist()):
            cells.setdefault(y, []).append(i)
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
        rest = [fold_arrays[j] for j in range(folds) if j not in (k, (k + 1) % folds)]
        partitions.append((np.sort(np.concatenate(rest)), fold_arrays[(k + 1) % folds],
                           fold_arrays[k]))
    return partitions, degraded


def per_cell_load(path, schema):
    """Row-by-row, cell-by-cell loader: the oracle for `load_dataset`'s
    values, codes, tokens, exception types and messages."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [[cell.strip() for cell in row] for row in reader if row]
    needed = (list(schema.numerical_names) + list(schema.categorical_names)
              + [schema.label_name, schema.group_name])
    col = {}
    for name in needed:
        if name not in header:
            raise SchemaError(f"{path}: declared column {name!r} not found in header")
        col[name] = header.index(name)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {r} has {len(row)} fields, header has {len(header)}")
        for name in needed:
            if row[col[name]] == "":
                raise ValidationError(f"{path}: missing value in column {name!r} at row {r}")
    numericals = np.zeros((len(rows), len(schema.numerical_names)))
    for j, name in enumerate(schema.numerical_names):
        for r, row in enumerate(rows):
            token = row[col[name]]
            try:
                numericals[r, j] = float(token)
            except ValueError:
                raise ParseError(f"{path}: non-numeric value {token!r} in column {name!r} "
                                 f"at row {r}") from None
            if not np.isfinite(numericals[r, j]):
                raise ParseError(f"{path}: non-finite value {token!r} in column {name!r} "
                                 f"at row {r}")
    categoricals = np.zeros((len(rows), len(schema.categorical_names)), dtype=int)
    levels = []
    for j, name in enumerate(schema.categorical_names):
        seen = {}
        for r, row in enumerate(rows):
            categoricals[r, j] = seen.setdefault(row[col[name]], len(seen))
        levels.append(tuple(seen))

    def binary(column, declared):
        tokens = [row[col[column]] for row in rows]
        distinct = list(dict.fromkeys(tokens))
        if declared is not None:
            if len(distinct) > 2:
                raise ValidationError(f"{path}: column {column!r} has {len(distinct)} "
                                      "distinct values, expected binary")
            if declared not in distinct:
                raise ValidationError(f"{path}: declared token {declared!r} never appears "
                                      f"in column {column!r}")
            other = [t for t in distinct if t != declared]
            return ([int(t == declared) for t in tokens],
                    (other[0] if other else "0", declared))
        codes = []
        for r, t in enumerate(tokens):
            try:
                v = int(t)
            except ValueError:
                v = -1
            if v not in (0, 1):
                raise ValidationError(f"{path}: column {column!r} value {t!r} at row {r} "
                                      "is outside {0, 1}")
            codes.append(v)
        return codes, ("0", "1")

    labels, label_tokens = binary(schema.label_name, schema.favorable)
    groups, group_tokens = binary(schema.group_name, schema.privileged)
    return Dataset(schema, numericals, categoricals, labels, groups, tuple(levels),
                   label_tokens, group_tokens)


NUMBERS = ["0", " 1.5", "-2e3 ", "1_000", "\uff11\uff12"]
TOKENS = ["a", " a", "b ", "a,b", 'q"t', "\u3000c", "c\x00", "x\ny"]
BITS = ["0", "1", " 1", "01", "+0"]
WORDS = ["hi", "lo", " hi "]
BAD_NUMBERS = ["nan", "-inf", "Infinity ", "0x10", "1,5", "junk", "\x00"]
BAD_TOKENS = ["\x00"]
BAD_BITS = ["2", "yes", "-1", "1.0", "9" * 30]
EMPTY = ["", " "]


@st.composite
def tables(draw, clean):
    """(header, rows, schema) of a random table; a clean one always loads."""
    n_num = draw(st.integers(0, 2))
    n_cat = draw(st.integers(0 if n_num else 1, 2))
    declared = draw(st.booleans())
    names = [f"n{j}" for j in range(n_num)] + [f"c{j}" for j in range(n_cat)]
    header = draw(st.permutations(names + ["y", "s"] + draw(
        st.sampled_from([[], ["extra"], ["extra", "extra"]]))))
    binary = WORDS if declared else BITS
    pools = {"n": (NUMBERS, BAD_NUMBERS), "c": (TOKENS, BAD_TOKENS), "y": (binary, BAD_BITS),
             "s": (binary, BAD_BITS), "e": (TOKENS, BAD_TOKENS)}
    holes = EMPTY if not clean and draw(st.booleans()) else []
    cell = {}
    for key, (good, bad) in pools.items():
        pool = st.sampled_from(good + holes if clean or draw(st.booleans()) else
                               good + bad + holes)
        if key == "n":
            pool = st.one_of(pool, st.floats(allow_nan=not clean,
                                             allow_infinity=not clean).map(repr))
        cell[key] = pool
    n = draw(st.integers(1 if clean else 0, 8))
    rows = []
    for _ in range(n):
        row = [draw(cell[name[0]]) for name in header]
        if not clean:
            ragged = draw(st.integers(0, 15))
            row = row[:-1] if ragged == 0 else row + ["tail"] if ragged == 1 else row
        rows.append(row)
    padded = [draw(st.sampled_from(["", " "])) + h for h in header]
    favorable = privileged = None
    if declared and clean:  # the first row's tokens, so both occur
        favorable, privileged = (rows[0][header.index(c)].strip() for c in ("y", "s"))
    elif declared:
        favorable, privileged = (draw(st.sampled_from(WORDS)).strip() for _ in range(2))
    schema = FeatureSchema(tuple(names[:n_num]), tuple(names[n_num:]), "y", "s",
                           favorable=favorable, privileged=privileged)
    return padded, rows, schema


def write_table(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def load_outcome(load, path, schema):
    try:
        return load(path, schema)
    except (ParseError, SchemaError, ValidationError) as exc:
        return type(exc), str(exc)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_four_row_file(self, tmp_path):
        f = write_csv(tmp_path / "d.csv",
                      "age,job,sex,income\n30,A,0,1\n40,B,1,0\n50,A,0,1\n35,C,1,0\n")
        d = load_dataset(f, SCHEMA)
        assert d.n == 4
        assert d.n_numerical == 1
        assert d.n_categorical == 1
        assert np.array_equal(d.labels, [1, 0, 1, 0])
        assert np.array_equal(d.groups, [0, 1, 0, 1])

    def test_missing_column_names_it(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "job,sex,income\nA,0,1\n")
        with pytest.raises(SchemaError, match="age"):
            load_dataset(f, SCHEMA)

    def test_first_appearance_codes(self, tmp_path):
        f = write_csv(tmp_path / "d.csv",
                      "age,job,sex,income\n1,A,0,1\n2,B,0,1\n3,A,1,0\n")
        d = load_dataset(f, SCHEMA)
        assert list(d.categoricals[:, 0]) == [0, 1, 0]
        assert d.category_levels == (("A", "B"),)

    def test_non_numeric_reports_row(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "age,job,sex,income\n1,A,0,1\nbad,B,1,0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_dataset(f, SCHEMA)

    def test_non_finite_reports_row_and_column(self, tmp_path):
        for token in ("nan", "inf", "-inf"):
            f = write_csv(tmp_path / "d.csv", f"age,job,sex,income\n1,A,0,1\n{token},B,1,0\n")
            with pytest.raises(ParseError, match="non-finite.*'age' at row 1"):
                load_dataset(f, SCHEMA)

    def test_non_binary_label_rejected(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "age,job,sex,income\n1,A,0,2\n")
        with pytest.raises(ValidationError, match="income"):
            load_dataset(f, SCHEMA)

    def test_missing_value_rejected(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "age,job,sex,income\n1,A,0,1\n2,,1,0\n")
        with pytest.raises(ValidationError, match="job"):
            load_dataset(f, SCHEMA)

    def test_favorable_privileged_mapping(self, tmp_path):
        schema = FeatureSchema(("age",), (), "income", "sex",
                               favorable=">50K", privileged="Male")
        f = write_csv(tmp_path / "d.csv",
                      "age,sex,income\n30,Male,>50K\n40,Female,<=50K\n")
        d = load_dataset(f, schema)
        assert list(d.labels) == [1, 0]
        assert list(d.groups) == [1, 0]

    def test_favorable_with_three_values_rejected(self, tmp_path):
        schema = FeatureSchema(("age",), (), "income", "sex", favorable="hi")
        f = write_csv(tmp_path / "d.csv",
                      "age,sex,income\n1,0,hi\n2,1,lo\n3,0,mid\n")
        with pytest.raises(ValidationError, match="distinct"):
            load_dataset(f, schema)

    @pytest.mark.parametrize("favorable, privileged, token, column", [
        (">50K", "male", "male", "sex"), (">50k", "Male", ">50k", "income")])
    def test_absent_declared_token_rejected(self, tmp_path, favorable, privileged,
                                            token, column):
        schema = FeatureSchema(("age",), (), "income", "sex",
                               favorable=favorable, privileged=privileged)
        f = write_csv(tmp_path / "d.csv",
                      "age,sex,income\n30,Male,>50K\n40,Female,<=50K\n")
        with pytest.raises(ValidationError, match=f"{token!r}.*{column!r}"):
            load_dataset(f, schema)

    def test_save_load_round_trip(self, tmp_path):
        f = write_csv(tmp_path / "d.csv",
                      "age,job,sex,income\n1.5,A,0,1\n2.25,B,1,0\n3,A,0,1\n")
        d = load_dataset(f, SCHEMA)
        out = tmp_path / "out.csv"
        save_dataset(d, out)
        d2 = load_dataset(out, SCHEMA)
        assert same_dataset(d, d2)

    def test_duplicate_declared_column_rejected(self, tmp_path):
        f = write_csv(tmp_path / "d.csv",
                      "age,job,age,sex,income\n30,A,99,0,1\n40,B,98,1,0\n")
        with pytest.raises(SchemaError, match="'age' appears 2 times"):
            load_dataset(f, SCHEMA)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "age,job,sex,income\n30,A,0,1\n40,B,1,0\n"
        plain = load_dataset(write_csv(tmp_path / "plain.csv", text), SCHEMA)
        marked = tmp_path / "marked.csv"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert same_dataset(load_dataset(marked, SCHEMA), plain)
        out = tmp_path / "out.csv"
        save_dataset(plain, out)
        assert out.read_bytes().startswith(b"age,")  # written without a mark

    def test_duplicate_undeclared_column_allowed(self, tmp_path):
        f = write_csv(tmp_path / "d.csv", "age,note,job,note,sex,income\n30,x,A,y,0,1\n")
        assert load_dataset(f, SCHEMA).n == 1

    def test_saves_binary_columns_in_their_tokens(self, tmp_path):
        schema = FeatureSchema(("age",), ("job",), "income", "sex",
                               favorable=">50K", privileged="Male")
        f = write_csv(tmp_path / "d.csv", "age,job,sex,income\n"
                      "30,A,Male,>50K\n40,B,Female,<=50K\n50,A,Male,<=50K\n")
        d = load_dataset(f, schema)
        assert d.label_tokens == ("<=50K", ">50K") and d.group_tokens == ("Female", "Male")
        out = tmp_path / "out.csv"
        save_dataset(d, out)
        assert out.read_text().splitlines() == [
            "age,job,sex,income", "30.0,A,Male,>50K", "40.0,B,Female,<=50K", "50.0,A,Male,<=50K"]
        assert same_dataset(load_dataset(out, schema), d)

    def test_absent_other_token_written_as_zero(self, tmp_path):
        schema = FeatureSchema(("age",), (), "income", "sex", favorable=">50K")
        f = write_csv(tmp_path / "d.csv", "age,sex,income\n30,1,>50K\n40,0,>50K\n")
        d = load_dataset(f, schema)
        assert d.label_tokens == ("0", ">50K")
        assert same_dataset(d, load_dataset(f, schema))

    @settings(max_examples=400, deadline=None)
    @given(tables(clean=False))
    @example((["n0", "y", "s"], [["1", "0", "0"], ["inf", "0", "1"], ["bad", "1", "0"]],
              FeatureSchema(("n0",), (), "y", "s")))
    def test_matches_per_cell_reference(self, tmp_path_factory, table):
        header, rows, schema = table
        path = write_table(tmp_path_factory.mktemp("t") / "d.csv", header, rows)
        got = load_outcome(load_dataset, path, schema)
        want = load_outcome(per_cell_load, path, schema)
        if isinstance(want, Dataset):
            assert isinstance(got, Dataset) and same_dataset(got, want)
        else:
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(tables(clean=True))
    def test_save_load_round_trip_property(self, tmp_path_factory, table):
        header, rows, schema = table
        folder = tmp_path_factory.mktemp("t")
        d = load_dataset(write_table(folder / "d.csv", header, rows), schema)
        save_dataset(d, folder / "out.csv")
        assert same_dataset(load_dataset(folder / "out.csv", schema), d)


class TestSchemaFile:
    def test_round_trip(self, tmp_path):
        schema = FeatureSchema(("a", "b"), ("c",), "y", "s", favorable="yes")
        path = tmp_path / "schema.txt"
        save_schema(schema, path)
        assert load_schema(path) == schema

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("numerical = a\nlabel = y\ngroup = s\n", encoding="utf-8-sig")
        assert load_schema(path) == FeatureSchema(("a",), (), "y", "s")

    @pytest.mark.parametrize("text, key", [
        ("numerical = x1, x2\ncategorical = c\nnumerical = x2\nlabel = y\ngroup = s\n",
         "numerical"),
        ("numerical = x1\nlabel = y\ngroup = s\nLabel = s\n", "label"),
    ], ids=["numerical", "label"])
    def test_repeated_key_rejected(self, tmp_path, text, key):
        # a later line must not silently replace an earlier one
        path = tmp_path / "schema.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=f"repeated schema key '{key}'"):
            load_schema(path)

    @pytest.mark.parametrize("text, message", [
        ("numerical = x1\nlabel y\ngroup = s\n", "expected key = value, got 'label y'"),
        ("numerical = x1\nlabel = y\ngroup = s\nweight = w\n", "unknown schema key 'weight'"),
        ("numerical = x1\ngroup = s\n", "missing 'label' entry"),
        ("numerical = x1\nlabel = y\n", "missing 'group' entry"),
    ], ids=["no-equals", "unknown-key", "no-label", "no-group"])
    def test_malformed_schema_rejected(self, tmp_path, text, message):
        path = tmp_path / "schema.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            load_schema(path)

    def test_readme_example_loads(self, tmp_path):
        # The README's schema block, whole-line comments included, loads as written.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        block = next(b for b in readme.split("```")[1::2] if "\nfavorable = " in b)
        path = tmp_path / "schema.txt"
        path.write_text(block, encoding="utf-8")
        schema = load_schema(path)
        assert schema.favorable == ">50K" and schema.privileged == "Male"
        assert schema == FeatureSchema(("age", "hours"), ("job", "marital"), "income", "sex",
                                       ">50K", "Male")
        assert "\n# " in block

    def test_schema_invariants(self):
        with pytest.raises(SchemaError):
            FeatureSchema(("a",), ("a",), "y", "s")
        with pytest.raises(SchemaError):
            FeatureSchema(("y",), (), "y", "s")
        with pytest.raises(SchemaError):
            FeatureSchema((), (), "y", "s")
        with pytest.raises(SchemaError, match="label and group columns must differ"):
            FeatureSchema(("a",), (), "y", "y")


class TestNormalization:
    def test_min_max_mapping(self):
        d = make_dataset([10.0, 20.0, 30.0], [], [0, 1, 0], [0, 1, 1])
        params = fit_normalization(d)
        assert params.mins[0] == 10 and params.maxs[0] == 30
        out = apply_normalization(d, params)
        assert np.allclose(out.numericals[:, 0], [0, 0.5, 1])

    def test_constant_column_maps_to_zero(self):
        d = make_dataset([5.0, 5.0], [], [0, 1], [0, 1])
        out = apply_normalization(d, fit_normalization(d))
        assert np.array_equal(out.numericals[:, 0], [0.0, 0.0])

    def test_out_of_range_clips(self):
        train = make_dataset([10.0, 30.0], [], [0, 1], [0, 1])
        params = fit_normalization(train)
        test = make_dataset([40.0, 0.0], [], [0, 1], [0, 1])
        out = apply_normalization(test, params)
        assert np.array_equal(out.numericals[:, 0], [1.0, 0.0])

    def test_round_trip_in_unit_interval(self):
        rng = np.random.default_rng(0)
        d = make_dataset(rng.normal(size=(40, 3)) * 100, [], rng.integers(0, 2, 40), rng.integers(0, 2, 40))
        out = apply_normalization(d, fit_normalization(d))
        assert out.numericals.min() >= 0.0 and out.numericals.max() <= 1.0

    def test_max_below_min_rejected(self):
        with pytest.raises(ValidationError, match="max < min"):
            data.NormalizationParams(np.array([0.0, 1.0]), np.array([1.0, 0.5]))

    def test_fit_on_empty_dataset_rejected(self):
        d = make_dataset(np.zeros((0, 1)), [], np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        with pytest.raises(ValidationError, match="empty dataset"):
            fit_normalization(d)

    def test_invert_recovers_raw_units(self):
        rng = np.random.default_rng(1)
        d = make_dataset(rng.normal(size=(20, 2)) * 7 + 3, [], rng.integers(0, 2, 20), rng.integers(0, 2, 20))
        params = fit_normalization(d)
        back = invert_normalization(apply_normalization(d, params), params)
        assert np.allclose(back.numericals, d.numericals)


class TestEncodeFeatures:
    def test_column_count(self):
        d = make_dataset([0.5, 0.1], [[1], [2]], [0, 1], [0, 1],
                         levels=(("a", "b", "c"),))
        matrix = encode_features(d)
        assert matrix.shape[1] == 1 + 3 + 1

    def test_row_encoding(self):
        d = make_dataset([0.5], [[1]], [0], [0], levels=(("a", "b", "c"),))
        matrix = encode_features(d)
        assert np.array_equal(matrix[0], [0.5, 0, 1, 0, 0])

    def test_no_categoricals(self):
        d = make_dataset([[0.5, 0.25]], [], [1], [1])
        matrix = encode_features(d)
        assert matrix.shape[1] == 2 + 1
        assert matrix[0, -1] == 1.0

    def test_read_only(self):
        matrix = encode_features(make_dataset([0.5], [], [0], [1]))
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_onehot_blocks_sum_to_one(self):
        rng = np.random.default_rng(2)
        d = make_dataset(rng.random((30, 1)), rng.integers(0, 4, size=(30, 2)),
                         rng.integers(0, 2, 30), rng.integers(0, 2, 30))
        matrix = encode_features(d)
        offset = d.n_numerical
        for j in range(d.n_categorical):
            block = matrix[:, offset:offset + len(d.category_levels[j])]
            assert np.allclose(block.sum(axis=1), 1.0)
            assert np.array_equal(block[np.arange(d.n), d.categoricals[:, j]], np.ones(d.n))
            offset += block.shape[1]


class TestStratifiedSplit:
    @staticmethod
    def balanced(n):
        half = n // 2
        labels = np.tile([0, 1], half)
        groups = np.repeat([0, 1], half)
        return make_dataset(np.linspace(0, 1, n), [], labels, groups)

    def test_sixty_twenty_twenty(self):
        d = self.balanced(100)
        for train, valid, test in stratified_split(d, seed=0):
            assert (len(train), len(valid), len(test)) == (60, 20, 20)

    def test_deterministic(self):
        d = self.balanced(100)
        a = stratified_split(d, seed=3)
        b = stratified_split(d, seed=3)
        for (t1, v1, s1), (t2, v2, s2) in zip(a, b):
            assert np.array_equal(t1, t2) and np.array_equal(v1, v2) and np.array_equal(s1, s2)

    def test_partitions_disjoint_and_cover(self):
        d = self.balanced(100)
        for train, valid, test in stratified_split(d, seed=1):
            joined = np.concatenate([train, valid, test])
            assert len(joined) == 100
            assert np.array_equal(np.sort(joined), np.arange(100))

    def test_stratification_preserved(self):
        d = self.balanced(100)
        for train, valid, test in stratified_split(d, seed=5):
            for part in (train, valid, test):
                assert d.labels[part].mean() == pytest.approx(0.5)
                assert d.groups[part].mean() == pytest.approx(0.5)

    def test_small_cell_degrades_with_warning(self):
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        groups = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
        d = make_dataset(np.linspace(0, 1, 10), [], labels, groups)
        with pytest.warns(UserWarning, match="label-only"):
            parts = stratified_split(d, seed=0)
        assert len(parts) == 5

    def test_too_few_rows(self):
        d = self.balanced(4)
        with pytest.raises(ValidationError):
            stratified_split(d, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=4, max_size=4),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.sampled_from([3, 4, 5]))
    def test_matches_per_sample_reference(self, sizes, order_seed, seed, folds):
        # sizes[2 * label + group] rows per (label, group) cell, in shuffled row order
        cell = np.random.default_rng(order_seed).permutation(np.repeat(np.arange(4), sizes))
        d = make_dataset(np.zeros(len(cell)), [], cell // 2, cell % 2)
        with mock.patch.object(data, "_FOLDS", folds):
            if d.n < folds:
                with pytest.raises(ValidationError):
                    per_sample_split(d, seed, folds)
                with pytest.raises(ValidationError):
                    stratified_split(d, seed)
                return
            expected, degraded = per_sample_split(d, seed, folds)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                parts = stratified_split(d, seed)
        assert [str(w.message) for w in caught] == (
            ["a (label, group) cell has fewer members than folds; "
             "degrading to label-only stratification"] if degraded else [])
        assert len(parts) == len(expected) == folds
        for got, want in zip(parts, expected):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


class TestDatasetInvariants:
    def test_values_immutable(self):
        d = make_dataset([0.5], [[0]], [1], [0], levels=(("a",),))
        with pytest.raises(ValueError):
            d.numericals[0, 0] = 2.0
        with pytest.raises(ValueError):
            d.labels[0] = 0

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            make_dataset([0.5], [], [2], [0])

    @pytest.mark.parametrize("build, given", [
        (lambda a: Dataset(FeatureSchema(("x", "z"), ("c",), "y", "s"), **a),
         {"numericals": np.full((4, 2), 0.5), "categoricals": np.zeros((4, 1), dtype=int),
          "labels": np.array([0, 1, 0, 1]), "groups": np.array([1, 1, 0, 0])}),
        (lambda a: data.NormalizationParams(**a), {"mins": np.zeros(2), "maxs": np.ones(2)}),
        (lambda a: Estimate(**a), {"values": np.array([0.5, np.nan])}),
        (lambda a: Classifier(intercept=0.0, **a), {"weights": np.array([1.0, -2.0])}),
    ], ids=["Dataset", "NormalizationParams", "Estimate", "Classifier"])
    def test_constructors_freeze_a_copy(self, build, given):
        # The object's arrays are read-only; the caller's stay writable and apart.
        made = build(given)
        for name, theirs in given.items():
            mine = getattr(made, name)
            assert theirs.flags.writeable and not mine.flags.writeable
            assert not np.shares_memory(theirs, mine)
            assert np.array_equal(mine, theirs, equal_nan=True)
        # A frozen array that owns its data passes on uncopied; a view of one does not.
        again = build({name: getattr(made, name) for name in given})
        views = build({name: getattr(made, name)[::-1] for name in given})
        for name in given:
            assert getattr(again, name) is getattr(made, name)
            assert getattr(views, name).base is None

    def test_replace_shares_the_columns_it_keeps(self):
        d = make_dataset([[0.2, 5.0], [0.6, 1.0]], [[0], [1]], [0, 1], [1, 0])
        kept = ("categoricals", "labels", "groups")
        for made in (apply_normalization(d, fit_normalization(d)),
                     replace(d, numericals=np.zeros((2, 2)))):
            assert all(getattr(made, name) is getattr(d, name) for name in kept)

    def test_array_holders_compare_by_identity_and_hash(self):
        w = np.array([1.0, -2.0])
        d = make_dataset([0.5], [[0]], [1], [0])
        for make in (lambda: Estimate(w), lambda: Classifier(w, 0.0),
                     lambda: data.NormalizationParams(w, w + 1.0),
                     lambda: replace(d, labels=d.labels),
                     lambda: ComparabilityGraph(sparse.csr_matrix((2, 2), dtype=bool))):
            a, b = make(), make()
            assert a == a and a != b and len({a, b, a}) == 2
            assert hash(a) == hash(a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(FeatureSchema(("x",), (), "y", "s"),
                    np.zeros((3, 1)), np.zeros((2, 0), dtype=int), [0, 1], [0, 1])

    @pytest.mark.parametrize("num, cat, message", [
        (np.zeros((2, 2)), np.zeros((2, 1), dtype=int), "numerical width"),
        (np.zeros((2, 1)), np.zeros((2, 2), dtype=int), "categorical width"),
    ], ids=["numerical", "categorical"])
    def test_width_mismatch_rejected(self, num, cat, message):
        schema = FeatureSchema(("x",), ("c",), "y", "s")
        with pytest.raises(ValidationError, match=message):
            Dataset(schema, num, cat, [0, 1], [0, 1])

    def test_one_dimensional_columns_rejected(self):
        schema = FeatureSchema(("x",), (), "y", "s")
        with pytest.raises(ValidationError, match="2-D"):
            Dataset(schema, np.zeros(2), np.zeros((2, 0), dtype=int), [0, 1], [0, 1])
        with pytest.raises(ValidationError, match="2-D"):
            Dataset(schema, np.zeros((2, 1)), [], [0, 1], [0, 1])

    @pytest.mark.parametrize("codes, levels", [
        ([[2]], (("a",),)),          # past the last level
        ([[-1]], (("a", "b"),)),     # would decode as the last level
        ([[0], [-1]], None),         # programmatic codes
    ])
    def test_codes_outside_the_levels_rejected(self, codes, levels):
        schema = FeatureSchema(("x",), ("c",), "y", "s")
        n = len(codes)
        with pytest.raises(ValidationError, match="'c'"):
            Dataset(schema, np.full((n, 1), 0.5), codes, [1] * n, [0] * n,
                    category_levels=levels)

    def test_levels_per_categorical_column(self):
        schema = FeatureSchema(("x",), ("c", "e"), "y", "s")
        with pytest.raises(ValidationError, match="levels"):
            Dataset(schema, [[0.5]], [[0, 0]], [1], [0], category_levels=(("a",),))

    @pytest.mark.parametrize("indices, bad", [
        ([1.5], "1.5 is a float64"), ([0, -1], "-1 out of range"), ([True], "True is a bool"),
        (np.array([2, 3]), "3 out of range"), (np.array([2.0]), "2.0 is a float64"),
        ([True, 2], "True is a bool"), ((2, np.True_), "True is a bool"),
    ], ids=["float", "negative", "bool", "n", "whole-float", "bool-among-ints",
            "numpy-bool-among-ints"])
    def test_subset_refuses_what_is_not_a_sample_index(self, indices, bad):
        # 1.5 is not truncated to row 1, -1 does not wrap to the last row and
        # True, alone or among ints, is not row 1: the first bad index is named
        d = make_dataset([0.1, 0.2, 0.3], [], [0, 1, 0], [1, 0, 1])
        with pytest.raises(IndexError, match=f"^sample index {bad}"):
            d.subset(indices)

    @pytest.mark.parametrize("indices", [
        [2, 0], (2, 0), range(2, -1, -2), np.array([2, 0], dtype=np.int32),
        np.array([2, 0], dtype=np.uint8), np.array([2, 0], dtype=np.uint64),
        [np.int64(2), np.int64(0)], [], np.array([], dtype=np.uint16),
    ])
    def test_subset_takes_integer_indices_of_any_width(self, indices):
        d = make_dataset([0.1, 0.2, 0.3], [], [0, 1, 0], [1, 0, 1])
        assert d.subset(indices).numericals[:, 0].tolist() == [0.3, 0.1][:len(indices)]

    def test_subset_keeps_levels(self):
        d = make_dataset([0.1, 0.2, 0.3], [[0], [1], [2]], [0, 1, 0], [1, 0, 1],
                         levels=(("p", "q", "r"),))
        sub = d.subset([2, 0])
        assert sub.category_levels == (("p", "q", "r"),)
        assert list(sub.categoricals[:, 0]) == [2, 0]
