import numpy as np
import pytest

from biasaudit.cli import main
from biasaudit.data import (
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

    def test_undefined_query_exits_three(self, tmp_path, capsys):
        data_path, schema_path = write_csv(
            tmp_path, "x,s,y\n0.0,0,1\n0.01,0,0\n5.0,1,1\n5.01,1,0\n")
        code = main(["explain", "--input", data_path, "--schema", schema_path,
                     "--index", "0", "--topk", "3", "--tr", "0.1"])
        assert code == 3
        assert "no comparable other-group evidence" in capsys.readouterr().err

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
        # one ranking call, over the one queried row
        assert ranked == ["bias_contributions", 1]

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

    @pytest.mark.parametrize("strategy", ["rem", "aug"])
    def test_negative_budget_exits_one_without_output(self, synth_inputs, tmp_path,
                                                       capsys, strategy):
        data_path, schema_path, _, _ = synth_inputs
        out = tmp_path / "out"
        code = main(["mitigate", "--input", data_path, "--schema", schema_path,
                     "--out", str(out), "--strategy", strategy, "--budget", "-5"])
        assert code == 1
        assert "budget must be non-negative" in capsys.readouterr().err
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
    # Up to damping 0.2 nothing inverts Q, and only `attribute --topk > 0`
    # factors the cross-group block, once: everything else solves on the sparse W.
    from biasaudit import similarity

    inverse, cross_block = similarity._inverse, similarity._cross_block

    def refused(*args, **kwargs):
        raise AssertionError("unexpected solver")

    monkeypatch.setattr(similarity, "_inverse", refused)
    monkeypatch.setattr(similarity, "_cross_block", refused)
    data_path, schema_path, _, _ = synth_inputs
    files = ["--input", data_path, "--schema", schema_path]
    for argv in (["mitigate", *files, "--out", str(tmp_path / "mit"),
                  "--strategy", "aug", "--budget", "5"],
                 ["explain", *files, "--index", "3"],
                 ["attribute", *files, "--out", str(tmp_path / "att0"), "--topk", "0"]):
        assert main(argv) == 0

    calls = []

    def counted(solve):
        def solver(*args, **kwargs):
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        return solver

    monkeypatch.setattr(similarity, "_cross_block", counted(cross_block))
    assert main(["attribute", *files, "--out", str(tmp_path / "att5"), "--topk", "5"]) == 0
    assert calls == ["_cross_block"]
    # above damping 0.2 every command inverts once instead of walking
    monkeypatch.setattr(similarity, "_inverse", counted(inverse))
    monkeypatch.setattr(similarity, "_walk", refused)
    assert main(["explain", *files, "--index", "3", "--damping", "0.9"]) == 0
    assert calls == ["_cross_block", "_inverse"]


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
    # scipy.linalg and scipy.special load only where they are used: the
    # dense solves of Q and the classifier's logistic function.
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
