import numpy as np
import pytest

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

from util import make_dataset


SCHEMA = FeatureSchema(("age",), ("job",), "income", "sex")


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
        assert d.equals(d2)


class TestSchemaFile:
    def test_round_trip(self, tmp_path):
        schema = FeatureSchema(("a", "b"), ("c",), "y", "s", favorable="yes")
        path = tmp_path / "schema.txt"
        save_schema(schema, path)
        assert load_schema(path) == schema

    def test_schema_invariants(self):
        with pytest.raises(SchemaError):
            FeatureSchema(("a",), ("a",), "y", "s")
        with pytest.raises(SchemaError):
            FeatureSchema(("y",), (), "y", "s")
        with pytest.raises(SchemaError):
            FeatureSchema((), (), "y", "s")


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
        dm = encode_features(d)
        assert dm.matrix.shape[1] == 1 + 3 + 1

    def test_row_encoding(self):
        d = make_dataset([0.5], [[1]], [0], [0], levels=(("a", "b", "c"),))
        dm = encode_features(d)
        assert np.array_equal(dm.matrix[0], [0.5, 0, 1, 0, 0])

    def test_no_categoricals(self):
        d = make_dataset([[0.5, 0.25]], [], [1], [1])
        dm = encode_features(d)
        assert dm.matrix.shape[1] == 2 + 1
        assert dm.group_col == 2

    def test_group_column_optional(self):
        d = make_dataset([0.5], [[0]], [0], [1], levels=(("a",),))
        dm = encode_features(d, include_group=False)
        assert dm.group_col is None
        assert dm.matrix.shape[1] == 2

    def test_onehot_blocks_sum_to_one(self):
        rng = np.random.default_rng(2)
        d = make_dataset(rng.random((30, 1)), rng.integers(0, 4, size=(30, 2)),
                         rng.integers(0, 2, 30), rng.integers(0, 2, 30))
        dm = encode_features(d)
        offset = d.n_numerical
        for j in range(d.n_categorical):
            block = dm.matrix[:, offset:offset + len(d.category_levels[j])]
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

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(FeatureSchema(("x",), (), "y", "s"),
                    np.zeros((3, 1)), np.zeros((2, 0), dtype=int), [0, 1], [0, 1])

    def test_subset_keeps_levels(self):
        d = make_dataset([0.1, 0.2, 0.3], [[0], [1], [2]], [0, 1, 0], [1, 0, 1],
                         levels=(("p", "q", "r"),))
        sub = d.subset([2, 0])
        assert sub.category_levels == (("p", "q", "r"),)
        assert list(sub.categoricals[:, 0]) == [2, 0]
