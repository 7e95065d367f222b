"""Self-check of the benchmark's correctness gate and failure accounting.

    python3 perfbench/selfcheck.py

For each workload at smoke size: the CLI's outputs pass the gate, the
traced run reproduces them byte for byte, and each corrupted copy of
the outputs below is reported as a failed operation:

- audit workloads: one bias value shifted by 1e-3; one `defined` flag
  flipped;
- mitigate-aug: one plan target replaced by a same-cell sample outside
  the seed's 5 most similar.

Exits 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import SMOKE  # noqa: E402


def corrupted(prep, filename, edit) -> Path:
    """Copy the CLI's outputs and apply `edit` to the lines of one file."""
    dst = prep.work / "corrupt"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(prep.work / "out", dst)
    path = dst / filename
    lines = path.read_text(encoding="utf-8").splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dst


def first_defined_row(lines):
    return next(k for k, line in enumerate(lines) if k and line.split("\t")[5] == "1")


def shift_bias(lines):
    k = first_defined_row(lines)
    fields = lines[k].split("\t")
    fields[4] = f"{float(fields[4]) + 1e-3:.6f}"
    lines[k] = "\t".join(fields)


def flip_defined(lines):
    k = first_defined_row(lines)
    fields = lines[k].split("\t")
    fields[5] = "0"
    lines[k] = "\t".join(fields)


def far_target(ref):
    """Point the first plan row at the seed's least similar same-cell sample."""
    def edit(lines):
        k = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        fields = lines[k].split(",")
        seed = int(fields[-3])
        cell = np.nonzero((ref.train.labels == ref.target_label)
                          & (ref.train.groups == ref.target_group))[0]
        cell = cell[cell != seed]
        fields[-2] = str(int(cell[np.argmin(ref.q[seed, cell])]))
        lines[k] = ",".join(fields)
    return edit


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ok = True

    def expect(label, problems, should_fail):
        nonlocal ok
        passed = bool(problems) == should_fail
        ok &= passed
        outcome = "reported as failed" if problems else "passed the gate"
        detail = f" ({problems[0]})" if problems else ""
        print(f"{'ok  ' if passed else 'FAIL'} {label}: {outcome}{detail}")

    for name, w in SMOKE.items():
        prep = run.prepare(w, seed=1, work=run.WORK / "selfcheck" / name)
        ops, metrics = run.traced_run(prep, time.perf_counter() + 120)
        expect(f"{name} CLI outputs", ops[0].problems, False)
        expect(f"{name} traced outputs", ops[1].problems, False)
        expect(f"{name} per-layer metrics", [] if metrics else ["none reported"], False)
        if w.kind == "mitigate":
            expect(f"{name} plan target outside the top 5",
                   run.gate(prep, corrupted(prep, "plan.txt", far_target(prep.ref))), True)
        else:
            expect(f"{name} bias shifted by 1e-3",
                   run.gate(prep, corrupted(prep, "bias_report.txt", shift_bias)), True)
            expect(f"{name} defined flag flipped",
                   run.gate(prep, corrupted(prep, "bias_report.txt", flip_defined)), True)
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
