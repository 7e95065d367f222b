"""Command-line entry point: attribute, explain, and mitigate subcommands.

Exit codes
----------
attribute: 0 success, 1 I/O, schema or data error, or an invalid
           option value (e.g. --tr 0).
explain:   additionally 3 when the queried sample has no comparable
           other-group evidence.
mitigate:  additionally 4 on an exact class tie without --tie-label.
Any subcommand exits 2 on a usage error, e.g. --topk on `mitigate`.

At every --damping nothing inverts the walk proximity Q: `attribute
--topk > 0` solves its cross-group block once, `explain` solves the row it
reads, and `mitigate --strategy aug` walks from each seed only until its
nearest same-cell neighbours are proven. `attribute` and `mitigate` warn on
stderr when every bias value is undefined, and still exit 0.
All report files are written atomically (temp file then rename) with the
mode a plain `open` would give under the umask, and `mitigate` computes
every result, the control included, before the first.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .attribution import UndefinedBiasError, attribute, bias_contributions
from .comparability import ComparabilityConfig
from .data import (
    apply_normalization,
    encode_features,
    fit_normalization,
    invert_normalization,
    load_dataset,
    load_schema,
    save_dataset,
    stratified_split,
)
from .metrics import evaluate_classifier
from .mitigation import (
    ClassBalanceTieError,
    RemovalPlan,
    apply_plan,
    plan_removal,
    synthesize_fair_samples,
    write_plan,
)
from .model import train_classifier


def _atomic_file(path, writer):
    """Run `writer(tmp_path)` and rename the result into place, with the mode
    `open(path, "w")` would give (0o666 less the umask), not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.chmod(tmp, 0o666 & ~umask)
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# perfbench/traced.py wraps this name as well as `_atomic_file`.
_atomic_write = _atomic_file


def _load(args):
    schema = load_schema(args.schema)
    return load_dataset(args.input, schema)


def _attribute_from_args(args, dataset, top_k):
    cfg = ComparabilityConfig(t_r=args.tr, t_d=args.td)
    params = fit_normalization(dataset)
    normalized = apply_normalization(dataset, params)
    report = attribute(
        normalized,
        cfg,
        damping=args.damping,
        top_k=top_k,
        similarity=args.similarity,
    )
    return report, normalized, params


def _warn_if_undefined(report):
    if not report.bias.defined.any():
        print("warning: no sample has comparable other-group evidence; "
              "all bias entries are undefined", file=sys.stderr)


def cmd_attribute(args) -> int:
    report, _, _ = _attribute_from_args(args, _load(args), args.topk)
    out_path = os.path.join(args.out, "bias_report.txt")
    os.makedirs(args.out, exist_ok=True)
    _atomic_file(out_path, report.write)
    _warn_if_undefined(report)
    print(f"wrote {out_path}")
    return 0


def _format_row(dataset, tag, i, *scores):
    """One `explain` line: tag, index, features, group, label, then the scores."""
    cells = ([tag, str(i)] + [format(v, ".6f") for v in dataset.numericals[i]]
             + dataset.subset([i]).decode_categoricals()[0].tolist()
             + [str(dataset.groups[i]), str(dataset.labels[i]), *scores])
    return "\t".join(cells)


def cmd_explain(args) -> int:
    dataset = _load(args)
    i = args.index
    if not 0 <= i < dataset.n:
        raise ValueError(f"sample index {i} out of range")
    if args.topk < 0:
        raise ValueError("top_k must be non-negative")
    report, normalized, _ = _attribute_from_args(args, dataset, top_k=0)
    s = dataset.schema
    print("\t".join(["row", "index", *s.numerical_names, *s.categorical_names, s.group_name,
                     s.label_name, "bias/contrib", "credibility", "similarity"]))
    print(_format_row(dataset, "query", i, f"{report.bias.values[i]:.6f}", "-", "-"))
    explanations = bias_contributions(
        normalized, report.similarity, report.credibility, i, args.topk)
    for rank, e in enumerate(explanations, start=1):
        print(_format_row(dataset, f"expl{rank}", e.index, f"{e.contribution:.6f}",
                          f"{e.credibility:.6f}", f"{e.similarity:.6f}"))
    return 0


def cmd_mitigate(args) -> int:
    """Plan on normalized rows; apply the plan to the rows as read, synthetic rows mapped back."""
    if args.budget < 0:
        raise ValueError("budget must be non-negative")
    if args.strategy == "aug" and args.neighbors < 1:
        raise ValueError("neighborhood size must be at least 1")
    dataset = _load(args)
    train_idx, _, test_idx = stratified_split(dataset, seed=args.seed)[0]
    rng, removed = np.random.default_rng(args.seed), None  # draws the random control's rows
    if args.strategy == "aug" and args.control == "random":  # known from the split alone
        if args.budget >= len(train_idx):
            raise ValueError(f"--control random under aug removes --budget {args.budget} "
                             f"rows, but the training split has only {len(train_idx)}")
        removed = rng.choice(len(train_idx), size=args.budget, replace=False)
        if len(np.unique(np.delete(dataset.labels[train_idx], removed))) < 2:
            raise ValueError(f"--control random with --budget {args.budget} keeps a single class")
    train_raw = dataset.subset(train_idx)

    report, train, params = _attribute_from_args(args, train_raw, top_k=0)
    _warn_if_undefined(report)
    test = apply_normalization(dataset.subset(test_idx), params)

    if args.strategy == "rem":
        plan = raw_plan = plan_removal(train, report.bias, args.budget, args.tie_label)
    else:
        plan = synthesize_fair_samples(
            train, report.bias, report.similarity, args.budget,
            n_nb=args.neighbors, rng_seed=args.seed, tie_label=args.tie_label,
        )
        raw_plan = replace(plan, rows=invert_normalization(plan.rows, params))

    edited = apply_plan(train, plan)
    train_sets = {"before": train, "after": edited}
    if args.control == "random":
        if removed is None:  # under rem, as many rows as the plan removes
            removed = rng.choice(train.n, size=len(plan.indices), replace=False)
        train_sets["control"] = apply_plan(train, RemovalPlan(tuple(removed.tolist()), args.budget))
    results = {name: evaluate_classifier(train_classifier(encode_features(t), t.labels), test)
               for name, t in train_sets.items()}
    edited_raw = apply_plan(train_raw, raw_plan)

    os.makedirs(args.out, exist_ok=True)
    _atomic_file(os.path.join(args.out, "edited_dataset.csv"),
                 lambda p: save_dataset(edited_raw, p))
    _atomic_file(os.path.join(args.out, "plan.txt"),
                 lambda p: write_plan(plan, p))
    for name, result in results.items():
        _atomic_file(os.path.join(args.out, f"metrics_{name}.txt"), result.write)

    print(f"edited {train.n} -> {edited.n} training samples; reports in {args.out}")
    print("before\t" + results["before"].to_text().strip())
    print("after\t" + results["after"].to_text().strip())
    return 0


def _add_common(parser):
    parser.add_argument("--input", required=True, help="delimited dataset file")
    parser.add_argument("--schema", required=True, help="schema descriptor file")
    parser.add_argument("--tr", type=float, default=0.1,
                        help="max per-feature numerical disparity (default 0.1)")
    parser.add_argument("--td", type=int, default=2,
                        help="max count of differing categorical features (default 2)")
    parser.add_argument("--damping", type=float, default=0.1,
                        help="walk continuation probability in [0, 1) (default 0.1); "
                             "the walk takes about ln(1e-14)/ln p steps, some 300 at "
                             "0.9 and 3,200 at 0.99")
    parser.add_argument("--similarity", choices=("rwr", "adjacency"), default="rwr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasaudit",
        description="Attribute, explain, and mitigate per-sample bias in tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_att = sub.add_parser("attribute", help="score every sample and write a bias report")
    _add_common(p_att)
    p_att.add_argument("--out", required=True, help="output directory")
    p_att.set_defaults(func=cmd_attribute)

    p_exp = sub.add_parser("explain", help="print the top contributors to one sample's bias")
    _add_common(p_exp)
    p_exp.add_argument("--index", type=int, required=True, help="sample row to explain")
    for p in (p_att, p_exp):
        p.add_argument("--topk", type=int, default=5, help="explanations per sample")
    p_exp.set_defaults(func=cmd_explain)

    p_mit = sub.add_parser("mitigate", help="edit the training split and report before/after metrics")
    _add_common(p_mit)
    p_mit.add_argument("--out", required=True, help="output directory")
    p_mit.add_argument("--strategy", choices=("rem", "aug"), required=True)
    p_mit.add_argument("--budget", type=int, required=True, help="samples to remove or add")
    p_mit.add_argument("--neighbors", type=int, default=5, help="mixup neighborhood size")
    p_mit.add_argument("--seed", type=int, default=0, help="split, mixup and control seed")
    p_mit.add_argument("--control", choices=("none", "random"), default="none",
                       help="also evaluate a control that removes random rows: as many "
                            "as the removal plan, or --budget under aug")
    p_mit.add_argument("--tie-label", type=int, choices=(0, 1), default=None, dest="tie_label",
                       help="target class override when label counts are exactly tied")
    p_mit.set_defaults(func=cmd_mitigate)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; every error it raises ends here with its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UndefinedBiasError as exc:  # explain's query has no other-group evidence
        print(exc, file=sys.stderr)
        return 3
    except ClassBalanceTieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:  # I/O, schema, data and option values
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
