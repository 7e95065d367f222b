import numpy as np
import pytest

from biasaudit import attribution, cli
from biasaudit.cli import main
from biasaudit.data import (
    fit_normalization,
    invert_normalization,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
    stratified_split,
)
from biasaudit.model import train_classifier
from biasaudit.synth import (
    SynthConfig,
    generate_base,
    inject_group_bias,
    save_truth,
)

from util import same_dataset


def graph_refused(*args, **kwargs):
    raise AssertionError("graph built")


def write_inputs(tmp_path, dataset, name="data"):
    data_path = tmp_path / f"{name}.csv"
    schema_path = tmp_path / f"{name}_schema.txt"
    save_dataset(dataset, data_path)
    save_schema(dataset.schema, schema_path)
    return str(data_path), str(schema_path)


def write_csv(tmp_path, text, name="tiny"):
    data_path = tmp_path / f"{name}.csv"
    data_path.write_text(text, encoding="utf-8")
    schema_path = tmp_path / f"{name}_schema.txt"
    schema_path.write_text("numerical = x\ncategorical =\nlabel = y\ngroup = s\n",
                           encoding="utf-8")
    return str(data_path), str(schema_path)


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synth")
    cfg = SynthConfig(n_per_group=250, seed=3)
    biased, truth = inject_group_bias(generate_base(cfg), cfg)
    data_path, schema_path = write_inputs(tmp, biased)
    truth_path = tmp / "truth.txt"
    save_truth(truth, truth_path)
    return data_path, schema_path, str(truth_path), biased


class TestAttribute:
    def test_writes_report_and_detects_bias(self, synth_inputs, tmp_path):
        data_path, schema_path, truth_path, biased = synth_inputs
        out = tmp_path / "out"
        code = main(["attribute", "--input", data_path, "--schema", schema_path,
                     "--out", str(out)])
        assert code == 0
        report = (out / "bias_report.txt").read_text().splitlines()
        assert len(report) == 1 + biased.n
        truth = np.loadtxt(truth_path, dtype=int).astype(bool)
        flagged = np.zeros(biased.n, dtype=bool)
        for line in report[1:]:
            fields = line.split("\t")
            idx, defined = int(fields[0]), fields[5] == "1"
            flagged[idx] = defined and float(fields[4]) > 0.5
        target = biased.groups == 0
        accuracy = (flagged[target] == truth[target]).mean()
        assert accuracy >= 0.95

    def test_bad_schema_path_exits_one_without_output(self, synth_inputs, tmp_path):
        data_path, _, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["attribute", "--input", data_path, "--schema",
                     str(tmp_path / "missing.txt"), "--out", str(out)])
        assert code == 1
        assert not (out / "bias_report.txt").exists()

    def test_bad_input_path_exits_one(self, synth_inputs, tmp_path):
        _, schema_path, _, _ = synth_inputs
        code = main(["attribute", "--input", str(tmp_path / "missing.csv"),
                     "--schema", schema_path, "--out", str(tmp_path / "o")])
        assert code == 1

    def test_empty_input_file_exits_one_without_output(self, tmp_path, capsys):
        data_path, schema_path = write_csv(tmp_path, "")
        out = tmp_path / "out"
        code = main(["attribute", "--input", data_path, "--schema", schema_path,
                     "--out", str(out)])
        assert code == 1
        assert "empty file" in capsys.readouterr().err
        assert not (out / "bias_report.txt").exists()

    def test_non_finite_cell_exits_one_without_output(self, tmp_path, capsys):
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.0,0,1\nnan,0,0\n0.05,1,1\n0.06,1,0\n")
        out = tmp_path / "out"
        code = main(["attribute", "--input", data_path, "--schema", schema_path,
                     "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "bias_report.txt").exists()

    @pytest.mark.parametrize("option", [["--tr", "0"], ["--td", "-1"], ["--damping", "1.0"]],
                             ids=["tr-0", "td-negative", "damping-1"])
    def test_invalid_option_value_exits_one_without_output(self, option, tmp_path, capsys):
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.0,0,1\n0.01,0,0\n0.02,1,1\n0.03,1,0\n")
        out = tmp_path / "out"
        code = main(["attribute", "--input", data_path, "--schema", schema_path,
                     "--out", str(out)] + option)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "bias_report.txt").exists()

    def test_absent_declared_token_exits_one_without_output(self, tmp_path, capsys):
        data_path = tmp_path / "census.csv"
        data_path.write_text("x,sex,income\n0.0,Male,>50K\n0.01,Female,<=50K\n"
                             "0.02,Male,<=50K\n0.03,Female,>50K\n", encoding="utf-8")
        schema_path = tmp_path / "census_schema.txt"
        schema_path.write_text("numerical = x\nlabel = income\ngroup = sex\n"
                               "favorable = >50K\nprivileged = male\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["attribute", "--input", str(data_path), "--schema", str(schema_path),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'male'" in err and "'sex'" in err
        assert not out.exists()

    def test_disconnected_groups_warns_and_succeeds(self, tmp_path, capsys):
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.0,0,1\n0.01,0,0\n5.0,1,1\n5.01,1,0\n")
        out = tmp_path / "out"
        code = main(["attribute", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--tr", "0.1"])
        assert code == 0
        assert "undefined" in capsys.readouterr().err
        assert (out / "bias_report.txt").exists()

    def test_negative_topk_exits_one_without_output(self, synth_inputs, tmp_path, capsys):
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["attribute", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--topk", "-3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "non-negative" in captured.err
        assert captured.out == ""
        assert not (out / "bias_report.txt").exists()

    def test_adjacency_similarity_variant(self, tmp_path):
        # identical rows -> complete graph; row-normalized bypass weighs the
        # four other-group rows (credibility 1/3 each) at 1/4 apiece, two of
        # them opposite-label -> bias 0.5; the lone-group query has no
        # same-group mass (zero diagonal), so its credibility is undefined
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.5,0,0\n0.5,1,1\n0.5,1,1\n0.5,1,0\n0.5,1,0\n")
        out = tmp_path / "out"
        code = main(["attribute", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--similarity", "adjacency", "--tr", "1.0"])
        assert code == 0
        lines = (out / "bias_report.txt").read_text().splitlines()
        fields = lines[1].split("\t")
        assert fields[3] == "nan"
        assert fields[4] == "0.500000"
        assert fields[5] == "1"


class TestExplain:
    def test_hand_derived_contributions(self, tmp_path, capsys):
        # identical rows -> complete graph; damping 0.5 gives Q = 0.4*I + 0.2
        # everywhere, hand-solved contributions (0.5, 0.0) for the query
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.5,0,0\n0.5,1,1\n0.5,1,0\n")
        code = main(["explain", "--input", data_path, "--schema", schema_path,
                     "--index", "0", "--topk", "2", "--tr", "1.0", "--damping", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header, query, two explanation rows
        query = lines[1].split("\t")
        assert query[0] == "query"
        assert query[-3] == "0.500000"
        first, second = lines[2].split("\t"), lines[3].split("\t")
        assert first[1] == "1" and first[-3] == "0.500000"
        assert first[-2] == "0.750000" and first[-1] == "0.200000"
        assert second[1] == "2" and second[-3] == "0.000000"

    def test_zero_bias_query_prints_zero_contributions(self, tmp_path, capsys):
        # every comparable other-group row shares the query's label
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.5,0,1\n0.5,1,1\n0.5,1,1\n")
        code = main(["explain", "--input", data_path, "--schema", schema_path,
                     "--index", "0", "--topk", "2", "--tr", "1.0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split("\t")[-3] == "0.000000"  # the bias itself
        for line in lines[2:]:
            assert line.split("\t")[-3] == "0.000000"
        assert len(lines) == 4

    def test_topk_zero_prints_header_only(self, tmp_path, capsys):
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.5,0,0\n0.5,1,1\n0.5,1,0\n")
        code = main(["explain", "--input", data_path, "--schema", schema_path,
                     "--index", "0", "--topk", "0", "--tr", "1.0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header and query row only

    @pytest.mark.parametrize("similarity", ["rwr", "adjacency"])
    def test_undefined_query_exits_three(self, tmp_path, capsys, similarity):
        # The header and the query line, then the library's message alone on stderr.
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.0,0,1\n0.01,0,0\n5.0,1,1\n5.01,1,0\n")
        code = main(["explain", "--input", data_path, "--schema", schema_path,
                     "--index", "0", "--topk", "3", "--tr", "0.1", "--similarity", similarity])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ("row\tindex\tx\ts\ty\tbias/contrib\tcredibility\tsimilarity\n"
                       "query\t0\t0.000000\t0\t1\tnan\t-\t-\n")
        assert err == "no comparable other-group evidence\n"

    def test_explains_only_the_queried_sample(self, tmp_path, capsys, monkeypatch):
        from biasaudit import attribution, cli

        ranked = []
        kernel = getattr(attribution, "_explanations", None)

        def counted_kernel(d, q, c, rows, k):
            ranked.append(len(rows))
            return kernel(d, q, c, rows, k)

        def counted_contributions(*args, **kwargs):
            ranked.append("bias_contributions")
            return contributions(*args, **kwargs)

        contributions = attribution.bias_contributions
        monkeypatch.setattr(attribution, "_explanations", counted_kernel, raising=False)
        for module in (attribution, cli):
            monkeypatch.setattr(module, "bias_contributions", counted_contributions,
                                raising=False)
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.5,0,0\n0.5,1,1\n0.5,1,0\n0.5,0,1\n")
        code = main(["explain", "--input", data_path, "--schema", schema_path,
                     "--index", "0", "--topk", "2", "--tr", "1.0"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4
        # attribute (at --topk 0) passes the kernel no rows; then one ranking
        # call, over the one queried row
        assert ranked == [0, "bias_contributions", 1]

    def test_negative_topk_exits_one_without_output(self, tmp_path, capsys):
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.5,0,0\n0.5,1,1\n0.5,1,0\n")
        code = main(["explain", "--input", data_path, "--schema", schema_path,
                     "--index", "0", "--topk", "-3", "--tr", "1.0"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "non-negative" in captured.err
        assert captured.out == ""

    def test_index_out_of_range_exits_one(self, tmp_path):
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.5,0,0\n0.5,1,1\n")
        code = main(["explain", "--input", data_path, "--schema", schema_path,
                     "--index", "9", "--topk", "1"])
        assert code == 1


class TestMitigate:
    def test_zero_budget_before_equals_after(self, synth_inputs, tmp_path):
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "rem", "--budget", "0"])
        assert code == 0
        before = (out / "metrics_before.txt").read_text()
        after = (out / "metrics_after.txt").read_text()
        assert before == after
        assert (out / "plan.txt").exists()
        assert (out / "edited_dataset.csv").exists()

    def test_zero_budget_aug_needs_no_neighbor(self, synth_inputs, tmp_path, capsys):
        # At t_r 1e-4 no training row has a comparable neighbour, and a budget
        # of 0 draws no seed that would need one; a class tie still exits 4.
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "aug", "--budget", "0", "--tr", "0.0001"])
        assert code == 0
        assert (out / "metrics_before.txt").read_text() == (out / "metrics_after.txt").read_text()
        assert len((out / "plan.txt").read_text().splitlines()) == 2  # the two comment lines
        tie_path, tie_schema = write_csv(tmp_path, "x,s,y\n" + "".join(
            f"{i / 10:.2f},{i % 2},{1 if i < 5 else 0}\n" for i in range(10)), name="tie")
        with pytest.warns(UserWarning):
            code = main(["mitigate", "--input", tie_path, "--schema", tie_schema,
                         "--out", str(tmp_path / "tie"), "--strategy", "aug", "--budget", "0",
                         "--tr", "1.0"])
        assert code == 4
        assert not (tmp_path / "tie").exists()

    def test_aug_at_damping_zero_exits_one_without_output(self, synth_inputs, tmp_path, capsys):
        # Q = I: every bias is undefined, so every seed weighs alike, but no
        # seed has a mixup target
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "aug", "--budget", "20",
                     "--damping", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "all bias entries are undefined" in err
        assert err.endswith("error: no candidate has a comparable same-group neighbor\n")
        assert not out.exists()

    def test_all_undefined_bias_warns_and_still_plans(self, synth_inputs, tmp_path, capsys):
        # At damping 0, Q = I holds no other-group evidence, so every bias is
        # undefined; the plan then removes by index alone, and says so.
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "rem", "--budget", "20",
                     "--damping", "0"])
        assert code == 0
        assert "all bias entries are undefined" in capsys.readouterr().err
        assert len((out / "plan.txt").read_text().splitlines()) == 1 + 20

    def test_removal_outputs(self, synth_inputs, tmp_path):
        data_path, schema_path, _, biased = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "rem", "--budget", "20",
                     "--control", "random"])
        assert code == 0
        edited = load_dataset(str(out / "edited_dataset.csv"),
                              load_schema(schema_path))
        train_size = len(stratified_split(biased, seed=0)[0][0])
        assert edited.n == train_size - 20
        plan_lines = (out / "plan.txt").read_text().splitlines()
        assert len(plan_lines) == 1 + 20
        assert (out / "metrics_control.txt").exists()

    def test_failed_control_write_exits_one(self, synth_inputs, tmp_path, capsys):
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        (out / "metrics_control.txt").mkdir(parents=True)
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "rem", "--budget", "5",
                     "--control", "random"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: " in captured.err and "metrics_control.txt" in captured.err
        assert captured.out == ""
        assert not list(out.glob("*.tmp"))

    def test_failed_control_training_leaves_no_output(self, synth_inputs, tmp_path, capsys,
                                                      monkeypatch):
        # The control's model is trained last: when its training fails no
        # file may be written, the edited dataset included.
        from biasaudit import cli

        calls = []

        def third_fails(features, labels):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("training labels contain a single class")
            return train_classifier(features, labels)

        monkeypatch.setattr(cli, "train_classifier", third_fails)
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "aug", "--budget", "15",
                     "--control", "random"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: training labels contain a single class" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_aug_control_of_every_training_row_rejected_first(self, synth_inputs, tmp_path,
                                                             capsys, monkeypatch):
        # Under aug the random control removes --budget rows: at the
        # training split's size or more it would remove every row.
        from biasaudit import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("attribution ran")

        monkeypatch.setattr(cli, "attribute", unreachable)
        data_path, schema_path, _, biased = synth_inputs
        train_size = len(stratified_split(biased, seed=0)[0][0])
        out = tmp_path / "out"
        for budget in (train_size, 1000):
            code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                         "--out", str(out), "--strategy", "aug", "--budget", str(budget),
                         "--control", "random"])
            assert code == 1
            captured = capsys.readouterr()
            assert f"--budget {budget}" in captured.err and f"only {train_size}" in captured.err
            assert captured.out == ""
            assert not out.exists()

    def test_aug_control_of_one_class_rejected_first(self, synth_inputs, tmp_path, capsys,
                                                     monkeypatch):
        # One row short of the training split, the control keeps a single
        # row, so its model could not train: this is known from the draw alone.
        from biasaudit import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("attribution ran")

        monkeypatch.setattr(cli, "attribute", unreachable)
        data_path, schema_path, _, biased = synth_inputs
        budget = len(stratified_split(biased, seed=0)[0][0]) - 1
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "aug", "--budget", str(budget),
                     "--control", "random"])
        assert code == 1
        captured = capsys.readouterr()
        assert f"--budget {budget} keeps a single class" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["rem", "aug"])
    def test_negative_budget_exits_one_without_output(self, synth_inputs, tmp_path,
                                                       capsys, monkeypatch, strategy):
        # rejected before the graph is built
        monkeypatch.setattr(attribution, "build_comparability_graph", graph_refused)
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", strategy, "--budget", "-5"])
        assert code == 1
        assert capsys.readouterr().err == "error: budget must be non-negative\n"
        assert not out.exists()

    def test_empty_neighborhood_exits_one_before_the_graph(self, synth_inputs, tmp_path,
                                                           capsys, monkeypatch):
        monkeypatch.setattr(attribution, "build_comparability_graph", graph_refused)
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "aug", "--budget", "10",
                     "--neighbors", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: neighborhood size must be at least 1\n"
        assert not out.exists()

    def test_augmentation_deterministic(self, synth_inputs, tmp_path):
        data_path, schema_path, _, biased = synth_inputs
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                         "--out", str(out), "--strategy", "aug", "--budget", "15",
                         "--seed", "11"])
            assert code == 0
            outs.append((out / "plan.txt").read_text())
        assert outs[0] == outs[1]
        edited = load_dataset(str(tmp_path / "a" / "edited_dataset.csv"),
                              load_schema(schema_path))
        train_size = len(stratified_split(biased, seed=11)[0][0])
        assert edited.n == train_size + 15

    def test_augmentation_builds_graph_once(self, synth_inputs, tmp_path, monkeypatch):
        from biasaudit import attribution, cli, comparability

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return comparability.build_comparability_graph(*args, **kwargs)

        for module in (attribution, cli):
            monkeypatch.setattr(module, "build_comparability_graph", counted, raising=False)
        data_path, schema_path, _, _ = synth_inputs
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(tmp_path / "out"), "--strategy", "aug", "--budget", "5"])
        assert code == 0
        assert len(calls) == 1

    def test_random_control_removes_as_many_rows_as_the_plan(self, synth_inputs, tmp_path,
                                                            monkeypatch):
        from biasaudit import cli

        sizes = []

        def recorded(features, labels):
            sizes.append(len(labels))
            return train_classifier(features, labels)

        monkeypatch.setattr(cli, "train_classifier", recorded)
        data_path, schema_path, _, _ = synth_inputs
        with pytest.warns(UserWarning, match="truncated"):
            code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                         "--out", str(tmp_path / "out"), "--strategy", "rem",
                         "--budget", "1000", "--control", "random"])
        assert code == 0
        plan_size = len((tmp_path / "out" / "plan.txt").read_text().splitlines()) - 1
        before, after, control = sizes
        assert 0 < plan_size < 1000
        assert before - after == before - control == plan_size

    def test_edited_dataset_keeps_input_tokens(self, synth_inputs, tmp_path):
        _, _, _, biased = synth_inputs
        lines = ["x1,x2,sex,income"] + [
            f"{a!r},{b!r},{'Male' if s else 'Female'},{'>50K' if y else '<=50K'}"
            for (a, b), s, y in zip(biased.numericals.tolist(), biased.groups, biased.labels)]
        data_path = tmp_path / "census.csv"
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema_path = tmp_path / "census_schema.txt"
        schema_path.write_text("numerical = x1, x2\nlabel = income\ngroup = sex\n"
                               "favorable = >50K\nprivileged = Male\n", encoding="utf-8")
        files = ["--input", str(data_path), "--schema", str(schema_path)]
        out = tmp_path / "out"
        assert main(["mitigate", *files, "--out", str(out), "--strategy", "rem",
                     "--budget", "20"]) == 0
        edited = (out / "edited_dataset.csv").read_text().splitlines()
        assert edited[0] == "x1,x2,sex,income"
        assert {tuple(line.split(",")[2:]) for line in edited[1:]} == {
            (s, y) for s in ("Male", "Female") for y in (">50K", "<=50K")}
        assert main(["attribute", "--input", str(out / "edited_dataset.csv"),
                     "--schema", str(schema_path), "--out", str(tmp_path / "att")]) == 0

    @pytest.mark.parametrize("strategy", ["rem", "aug"])
    def test_edited_dataset_writes_training_rows_as_read(self, tmp_path, monkeypatch, strategy):
        # Two-decimal values need not survive normalizing and mapping back
        # (63.52 came back as 63.519999999999996); the kept rows are the input's own, and
        # only aug's synthetic rows are mapped back, from the plan's rows.
        rng = np.random.default_rng(4)
        x = np.round(rng.uniform(20.0, 100.0, size=(300, 2)), 2)
        s = rng.integers(0, 2, size=300)
        y = (x[:, 0] + 10 * s + rng.normal(0.0, 10.0, size=300) > 70).astype(int)
        rows = [f"{a!r},{b!r},{g},{v}" for (a, b), g, v in zip(x.tolist(), s, y)]
        data_path = tmp_path / "decimals.csv"
        data_path.write_text("\n".join(["x1,x2,s,y", *rows]) + "\n", encoding="utf-8")
        schema_path = tmp_path / "decimals_schema.txt"
        schema_path.write_text("numerical = x1, x2\nlabel = y\ngroup = s\n", encoding="utf-8")
        plans = []
        synthesize = cli.synthesize_fair_samples

        def recorded(*args, **kwargs):
            plans.append(synthesize(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(cli, "synthesize_fair_samples", recorded)
        out = tmp_path / "out"
        assert main(["mitigate", "--input", str(data_path), "--schema", str(schema_path),
                     "--out", str(out), "--strategy", strategy, "--budget", "5",
                     "--tr", "0.2"]) == 0
        dataset = load_dataset(str(data_path), load_schema(str(schema_path)))
        train = stratified_split(dataset, seed=0)[0][0]
        kept = train
        if strategy == "rem":
            kept = np.delete(train, [int(line) for line in
                                     (out / "plan.txt").read_text().splitlines()[1:]])
        edited_path = out / "edited_dataset.csv"
        edited = edited_path.read_text(encoding="utf-8").splitlines()
        assert edited[1:len(kept) + 1] == [rows[i] for i in kept]
        if strategy == "aug":
            table = load_dataset(edited_path, dataset.schema)
            params = fit_normalization(dataset.subset(train))
            assert same_dataset(table.subset(range(len(kept), table.n)),
                                invert_normalization(plans[0].rows, params))

    def test_endless_seed_resampling_exits_one(self, tmp_path, capsys):
        # Cell (y=1, s=0): five rows at x=10 whose bias falls short of 1 by the
        # walk's mass four hops away, where the other group's y=1 rows sit, and
        # eight lone rows of undefined bias (weight one) with no neighbour.
        rows = ["x,s,y"] + ["10,0,1"] * 5 + ["10,1,0"] * 5
        rows += [f"{x},1,0" for x in (12, 14, 16) for _ in range(6)]
        rows += ["18,1,1"] * 5 + [f"{x},0,1" for x in range(30, 101, 10)]
        data_path, schema_path = write_csv(tmp_path, "\n".join(rows) + "\n")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="resampling"):
            code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                         "--out", str(out), "--strategy", "aug", "--budget", "1",
                         "--tr", "0.03", "--damping", "0.01"])
        assert code == 1
        assert "error: seed resampling did not terminate" in capsys.readouterr().err
        assert not out.exists()

    def test_exact_tie_exits_four(self, tmp_path):
        rows = ["x,s,y"]
        for i in range(10):
            rows.append(f"{i / 10:.2f},{i % 2},{1 if i < 5 else 0}")
        data_path = tmp_path / "tie.csv"
        data_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        schema_path = tmp_path / "tie_schema.txt"
        schema_path.write_text("numerical = x\ncategorical =\nlabel = y\ngroup = s\n",
                               encoding="utf-8")
        with pytest.warns(UserWarning):
            code = main(["mitigate", "--input", str(data_path), "--schema", str(schema_path),
                         "--out", str(tmp_path / "out"), "--strategy", "rem",
                         "--budget", "1", "--tr", "1.0"])
        assert code == 4
        with pytest.warns(UserWarning):
            code = main(["mitigate", "--input", str(data_path), "--schema", str(schema_path),
                         "--out", str(tmp_path / "out"), "--strategy", "rem",
                         "--budget", "1", "--tr", "1.0", "--tie-label", "1"])
        assert code == 0


@pytest.mark.parametrize("damping", ["1.0", "nan", "-3"])
@pytest.mark.parametrize("command", [
    ["attribute"], ["explain", "--index", "0"], ["mitigate", "--strategy", "rem", "--budget", "5"]],
    ids=["attribute", "explain", "mitigate"])
def test_invalid_damping_exits_one_under_adjacency(synth_inputs, tmp_path, capsys, monkeypatch,
                                                   command, damping):
    # The bypass never reads --damping, yet an invalid value is rejected,
    # before the graph is built.
    from biasaudit import attribution

    def unreachable(*args, **kwargs):
        raise AssertionError("graph built")

    monkeypatch.setattr(attribution, "build_comparability_graph", unreachable)
    data_path, schema_path, _, _ = synth_inputs
    out = tmp_path / "out"
    argv = [command[0], "--input", data_path, "--schema", schema_path, *command[1:],
            "--similarity", "adjacency", "--damping", damping]
    code = main(argv + (["--out", str(out)] if command[0] != "explain" else []))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "damping" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_only_explained_attribute_factors_the_walk(synth_inputs, tmp_path, monkeypatch):
    # At every damping only `attribute --topk > 0` factors the cross-group
    # block, once: everything else solves on the sparse W.
    from biasaudit import similarity

    cross_block, calls = similarity._cross_block, []

    def counted(*args, **kwargs):
        calls.append("_cross_block")
        return cross_block(*args, **kwargs)

    monkeypatch.setattr(similarity, "_cross_block", counted)
    data_path, schema_path, _, _ = synth_inputs
    files = ["--input", data_path, "--schema", schema_path]
    for damping in ("0.1", "0.9"):
        calls.clear()
        common = [*files, "--damping", damping]
        for argv in (["mitigate", *common, "--out", str(tmp_path / f"mit{damping}"),
                      "--strategy", "aug", "--budget", "5"],
                     ["explain", *common, "--index", "3"],
                     ["attribute", *common, "--out", str(tmp_path / f"att0-{damping}"),
                      "--topk", "0"]):
            assert main(argv) == 0
        assert calls == []
        assert main(["attribute", *common, "--out", str(tmp_path / f"att5-{damping}"),
                     "--topk", "5"]) == 0
        assert calls == ["_cross_block"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_take_the_umask_mode(synth_inputs, tmp_path, umask, mode):
    # The atomic rename must not keep the temp file's private 0o600: every
    # output gets the mode a plain open(path, "w") gives under the umask.
    import os
    import stat

    data_path, schema_path, _, _ = synth_inputs
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["attribute", "--input", data_path, "--schema", schema_path,
                     "--out", str(out)]) == 0
        assert main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", "aug", "--budget", "10",
                     "--control", "random"]) == 0
        plain = tmp_path / "plain.txt"
        with open(plain, "w", encoding="utf-8"):
            pass
    finally:
        os.umask(old)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["bias_report.txt", "edited_dataset.csv", "metrics_after.txt",
                     "metrics_before.txt", "metrics_control.txt", "plan.txt"]
    assert stat.S_IMODE(plain.stat().st_mode) == mode
    for name in names:
        assert stat.S_IMODE((out / name).stat().st_mode) == mode, name


def test_seed_is_a_mitigate_option_only(synth_inputs, tmp_path):
    data_path, schema_path, _, _ = synth_inputs
    files = ["--input", data_path, "--schema", schema_path]
    for argv in (["attribute", *files, "--out", str(tmp_path / "att"), "--seed", "0"],
                 ["explain", *files, "--index", "0", "--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    code = main(["mitigate", *files, "--out", str(tmp_path / "mit"),
                 "--strategy", "rem", "--budget", "0", "--seed", "0"])
    assert code == 0


def test_topk_is_not_a_mitigate_option(synth_inputs, tmp_path):
    data_path, schema_path, _, _ = synth_inputs
    with pytest.raises(SystemExit) as exc:
        main(["mitigate", "--input", data_path, "--schema", schema_path,
              "--out", str(tmp_path / "mit"), "--strategy", "rem", "--budget", "0",
              "--topk", "5"])
    assert exc.value.code == 2
    assert not (tmp_path / "mit").exists()


def test_console_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    import biasaudit

    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(biasaudit.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "biasaudit.cli", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0
    assert "attribute" in result.stdout and "mitigate" in result.stdout


_MAIN = "from biasaudit.cli import main; code = main([{}])"


@pytest.mark.parametrize("run, exit_code, graph_built", [
    ("import biasaudit", 0, False),
    ("import biasaudit.cli", 0, False),
    (_MAIN.format("'--help'"), 0, False),
    (_MAIN.format("'attribute', '--input', data"), 2, False),  # --schema, --out missing
    (_MAIN.format("'attribute', '--input', data, '--schema', missing_column, '--out', out"),
     1, False),
    (_MAIN.format("'attribute', '--input', data, '--schema', schema, '--out', out"), 0, True),
], ids=["import", "import-cli", "help", "usage-error", "missing-column", "attribute"])
def test_scipy_loads_only_with_the_first_graph(run, exit_code, graph_built, tmp_path):
    # scipy.sparse is imported where a CSR is first made, so an import and every
    # exit before a graph load numpy only; scipy.linalg, scipy.stats and
    # scipy.special are then unloaded with the rest of scipy
    import os
    import subprocess
    import sys

    import biasaudit

    data, schema = write_csv(tmp_path, "x,s,y\n0.0,0,1\n0.05,0,0\n0.05,1,1\n0.06,1,0\n")
    missing_column = tmp_path / "missing_schema.txt"
    missing_column.write_text("numerical = x\ncategorical =\nlabel = y\ngroup = t\n",
                              encoding="utf-8")
    child = (
        "import sys\n"
        "data, schema, missing_column, out = sys.argv[1:]\n"
        "code = 0\n"
        "try:\n"
        f"    {run}\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, *sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(biasaudit.__file__))
    result = subprocess.run(
        [sys.executable, "-c", child, data, schema, str(missing_column), str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    code, *loaded = result.stdout.splitlines()[-1].split()
    assert int(code) == exit_code, result.stderr
    assert ("scipy.sparse" in loaded) if graph_built else loaded == [], loaded


def test_cli_import_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys

    import biasaudit

    src = os.path.dirname(os.path.dirname(biasaudit.__file__))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, biasaudit.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_sparse_solvers_unloaded():
    import os
    import subprocess
    import sys

    import biasaudit

    src = os.path.dirname(os.path.dirname(biasaudit.__file__))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, biasaudit.cli; "
         "print([m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph') if m in sys.modules])"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_dense_solvers_and_special_unloaded():
    # scipy.linalg loads only where it is used, in the dense solves of Q;
    # scipy.special is used nowhere.
    import os
    import subprocess
    import sys

    import biasaudit

    src = os.path.dirname(os.path.dirname(biasaudit.__file__))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, biasaudit.cli; "
         "print([m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules])"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_mitigate_leaves_scipy_special_unloaded(synth_inputs, tmp_path):
    # The classifier's logistic function is numpy's, so no run imports scipy.special.
    import os
    import subprocess
    import sys

    data_path, schema_path, _, _ = synth_inputs
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from biasaudit.cli import main; "
         f"code = main(['mitigate', '--input', {data_path!r}, '--schema', {schema_path!r}, "
         f"'--out', {str(tmp_path)!r}, '--strategy', 'aug', '--budget', '10', "
         "'--control', 'random']); "
         "print(code, 'scipy.special' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "0 False"
