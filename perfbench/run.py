"""End-to-end benchmark of the `biasaudit` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the
checkout's `src/biasaudit`, imported through PYTHONPATH. One closed-loop
client runs one CLI command at a time, each in a fresh process, and
checks every command's outputs against an independent reference
(`oracle.py`). A command that exits non-zero, times out or fails the
check counts as a failed operation.

Set-up, untimed: write the seeded inputs and compute the reference;
with --trace 0, also time a fresh `import biasaudit` five times
(`setup_s`).

--trace 0 runs the command once, then again while another command is
expected to end within S seconds of the first one's start. It reports
the median wall time from spawn to exit (`wall_s`) and the median peak
resident memory from `os.wait4` (`peak_rss_mb`), both taken by
`launch.py`.

--trace 1 runs the command once and then again through `traced.py`,
which wraps the package's public functions in spans and calls the
CLI's own `main`. Its outputs must match the command's byte for byte.
It reports per-layer times, counts, peak heap and self time, and
`trace.overhead_s`: the time the tracer spent on its own bookkeeping.

The last line of standard output is the result as one JSON object; the
line before it is the run record (machine, versions, input hashes, n
and edges). The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import ctypes
import filecmp
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
BUDGET_S = 170  # every run ends well inside 180 s
SETUP_SAMPLES = 5
LAYERS = ("data", "comparability", "similarity", "attribution", "report",
          "mitigation", "model", "metrics")
# The layer(s) predicted to dominate traced self time on each workload.
PREDICTED = {"audit-numeric": ("similarity",), "audit-census": ("comparability", "attribution"),
             "mitigate-aug": ("similarity",)}


@dataclass
class Prepared:
    workload: object
    work: Path
    inputs: dict
    ref: object

    @property
    def input_dir(self):
        return self.work / "input"


@dataclass
class Op:
    wall_s: float
    peak_rss_mb: float
    problems: list = field(default_factory=list)


def spawn(argv, log_path: Path, timeout: float):
    """Run argv through launch.py; return (exit code or None on timeout, wall s, peak RSS MB)."""
    timeout = max(timeout, 1.0)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launcher = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), repr(timeout), str(log_path), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = launcher.communicate(timeout=timeout + 30)
    except subprocess.TimeoutExpired:
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.communicate()
        return None, timeout, 0.0
    result = json.loads(out)
    return result["exit"], result["wall_s"], result["peak_rss_mb"]


def prepare(w, seed: int, work: Path) -> Prepared:
    """Write the inputs for `seed` and compute the reference (untimed)."""
    import oracle
    from workloads import generate

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = generate(w, seed, work / "input")
    if w.kind == "mitigate":
        ref = oracle.mitigate_reference(work / "input", w.t_r, 2, 0.1, split_seed=0)
    else:
        ref = oracle.audit_reference(work / "input", w.t_r, 2, 0.1,
                                     "rwr" if w.kind == "numeric" else "adjacency")
    return Prepared(w, work, inputs, ref)


def gate(prep: Prepared, out_dir: Path) -> list:
    """Problems found in one operation's outputs; output that does not parse is one."""
    import oracle

    try:
        if prep.workload.kind == "mitigate":
            return oracle.check_mitigate(out_dir, prep.ref, prep.workload.budget, 5)
        return oracle.check_report(out_dir / "bias_report.txt", prep.ref,
                                   detection=prep.workload.kind == "numeric")
    except (ValueError, IndexError) as exc:
        return [f"outputs do not parse: {exc!r}"]


def run_op(prep: Prepared, name: str, argv_head: list, timeout: float) -> Op:
    """One fresh process writing into a fresh output directory, then the gate."""
    out = prep.work / name
    shutil.rmtree(out, ignore_errors=True)
    argv = argv_head + prep.workload.cli_args(prep.input_dir, out)
    code, wall, rss = spawn(argv, prep.work / f"{name}.log", timeout)
    if code is None:
        return Op(wall, rss, [f"timed out after {wall:.1f} s"])
    if code != 0:
        return Op(wall, rss, [f"exit code {code}; see {prep.work / (name + '.log')}"])
    return Op(wall, rss, gate(prep, out))


def cli_op(prep, name, timeout):
    return run_op(prep, name, [sys.executable, "-m", "biasaudit.cli"], timeout)


def setup_seconds(samples: int) -> float:
    walls = []
    for k in range(samples):
        code, wall, _ = spawn([sys.executable, "-c", "import biasaudit"],
                              WORK / "setup.log", timeout=60)
        if code != 0:
            raise RuntimeError(f"import biasaudit failed (exit {code}); see {WORK / 'setup.log'}")
        walls.append(wall)
    return statistics.median(walls)


COUNT_UNITS = {
    "comparability.calls": "count",
    "comparability.edges": "count",
    "comparability.mean_degree": "edges/vertex",
    "comparability.isolated": "count",
    "comparability.no_cross_group": "count",
    "similarity.calls": "count",
    "similarity.q_bytes": "bytes-computed",
    "attribution.explain_calls": "count",
    "attribution.undefined": "count",
    "attribution.flagged": "count",
    "report.bytes": "bytes",
    "mitigation.synthetic_rows": "count",
    "mitigation.seed_resamples": "count",
    "model.train_calls": "count",
    "metrics.evaluate_calls": "count",
}


def layer_metrics(trace: dict) -> dict:
    """Per-layer times, counts, peak heap and self times from the traced run's spans.

    A span's self time is its duration less its children's durations and
    their bookkeeping cost, so tracing cost lands in no layer.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    self_time = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_time[s["parent"]] -= s["end"] - s["start"] + s["cost"]

    def seconds(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def peak_mb(*names):
        return max([s.get("peak_bytes", 0) for s in spans if s["name"] in names] or [0]) / 2**20

    m = {
        "data.load_s": (seconds("data.load_schema", "data.load_dataset"), "s"),
        "data.normalize_s": (seconds("data.fit_normalization", "data.apply_normalization"), "s"),
        "data.split_s": (seconds("data.split"), "s"),
        "comparability.build_s": (seconds("comparability.build"), "s"),
        "comparability.peak_mb": (peak_mb("comparability.build"), "MB"),
        "similarity.normalize_s": (seconds("similarity.normalize"), "s"),
        "similarity.proximity_s": (seconds("similarity.proximity"), "s"),
        "similarity.peak_mb": (peak_mb("similarity.normalize", "similarity.proximity"), "MB"),
        "attribution.credibility_s": (seconds("attribution.credibility"), "s"),
        "attribution.bias_s": (seconds("attribution.bias"), "s"),
        "attribution.explain_s": (sum(t for s, t in zip(spans, self_time)
                                      if s["name"] == "attribution.attribute"), "s"),
        "attribution.peak_mb": (peak_mb("attribution.credibility", "attribution.bias"), "MB"),
        "report.format_s": (seconds("report.format"), "s"),
        "report.write_s": (seconds("report.write"), "s"),
        "mitigation.plan_s": (seconds("mitigation.plan"), "s"),
        "mitigation.apply_s": (seconds("mitigation.apply"), "s"),
        "model.train_s": (seconds("model.train"), "s"),
        "metrics.evaluate_s": (seconds("metrics.evaluate"), "s"),
        "trace.overhead_s": (trace["overhead_s"], "s"),
    }
    for name, unit in COUNT_UNITS.items():
        m[name] = (counts.get(name, 0), unit)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_time):
        layer = s["name"].split(".")[0]
        if layer in self_s:
            self_s[layer] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def dominance(workload: str, metrics: dict) -> str:
    """Confirm or refute the predicted dominant layer(s) from traced self times."""
    self_s = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
    total = sum(self_s.values()) or 1.0
    ranked = sorted(self_s, key=self_s.get, reverse=True)
    predicted = PREDICTED[workload]
    verdict = "confirmed" if set(ranked[:len(predicted)]) == set(predicted) else "refuted"
    shares = ", ".join(f"{layer} {100 * self_s[layer] / total:.1f}%" for layer in ranked[:4])
    return (f"dominant layer prediction {'+'.join(predicted)} on {workload}: {verdict} "
            f"(share of layer self time: {shares})")


def traced_run(prep: Prepared, timeout_at: float):
    """The command once, then the same command traced, on the same inputs."""
    cli = cli_op(prep, "out", timeout_at - time.perf_counter())
    spans_path = prep.work / "spans.json"
    traced = run_op(prep, "traced", [sys.executable, str(HERE / "traced.py"), str(spans_path)],
                    timeout_at - time.perf_counter())
    if cli.problems and not traced.problems:
        traced.problems.append("the CLI failed, so there is nothing to compare against")
    elif not traced.problems:
        for f in sorted((prep.work / "out").iterdir()):
            mine = prep.work / "traced" / f.name
            if not (mine.is_file() and filecmp.cmp(f, mine, shallow=False)):
                traced.problems.append(f"traced {f.name} differs from the CLI's")
    metrics = {}
    if spans_path.exists():
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        metrics = layer_metrics(trace)
    return [cli, traced], metrics


def blas_threads():
    """OpenBLAS thread count of the numpy build, or None when it cannot be asked."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(prep: Prepared, seed: int, trace: int, ops: list) -> dict:
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    n = prep.ref.train.n if prep.workload.kind == "mitigate" else prep.ref.table.n
    return {
        "workload": prep.workload.name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "git_commit": commit, "src_lines": src_lines,
        "n": n, "edges": prep.ref.edges, "inputs": prep.inputs,
        "ops": [{"wall_s": op.wall_s, "peak_rss_mb": op.peak_rss_mb, "problems": op.problems}
                for op in ops],
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    timeout_at = started + BUDGET_S

    if not (SRC / "biasaudit" / "cli.py").is_file():
        print(f"error: no biasaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import biasaudit

    if Path(biasaudit.__file__).resolve().parent != SRC / "biasaudit":
        print(f"error: imported biasaudit from {biasaudit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    prep = prepare(w, args.seed, WORK / w.name)

    if args.trace:
        ops, metrics = traced_run(prep, timeout_at)
    else:
        setup_s = setup_seconds(SETUP_SAMPLES)
        ops = []
        loop_start = time.perf_counter()
        while True:
            ops.append(cli_op(prep, "out", timeout_at - time.perf_counter()))
            now = time.perf_counter()
            typical = statistics.median(op.wall_s for op in ops)
            longest = max(op.wall_s for op in ops)
            if now + typical > loop_start + args.seconds or now + 1.2 * longest > timeout_at:
                break
        metrics = {
            "wall_s": {"value": statistics.median(op.wall_s for op in ops), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op.peak_rss_mb for op in ops), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    failed = [op for op in ops if op.problems]
    for k, op in enumerate(ops):
        for problem in op.problems:
            print(f"operation {k} failed: {problem}", file=sys.stderr)
    if args.trace and metrics:
        print(dominance(w.name, metrics))
    record = run_record(prep, args.seed, args.trace, ops)
    (prep.work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("run record: " + json.dumps(record))
    print(json.dumps({"correct": not failed and bool(metrics), "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
