"""Traced run of one `biasaudit` CLI command.

    python3 perfbench/traced.py SPANS_JSON <CLI arguments>

The package's public functions are wrapped in spans from outside the
package, and then `biasaudit.cli.main` runs with the CLI arguments, so
the spans and counts follow whatever the CLI actually calls. Nothing
under `src/` is changed. A wrapper replaces every binding of its
function in the loaded `biasaudit` modules, names brought in with
`from ... import` included.

Each span records its name, start, end, parent and run id, and the time
its own bookkeeping took (`cost`): the clock reads, tracemalloc start
and stop, and the counts taken from the call's result. The costs add up
to `overhead_s`, together with the time to install the wrappers. The
per-allocation cost of tracemalloc inside the memory spans is not in
it. Spans and counts stay in memory and are written to SPANS_JSON once,
at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
import uuid
import warnings


class Tracer:
    """In-memory spans and counts of one run.

    A span opened with `memory=True` also records the peak heap that its
    call allocates, through tracemalloc. Only the array-heavy calls ask
    for it: tracing every allocation would more than double the time of
    the per-sample Python loops and distort their self times.
    """

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.counts = {}
        self.overhead_s = 0.0
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, memory=False, after=None):
        """Call fn inside a span; then `after(result, *args)` updates the counts."""
        enter = time.perf_counter()
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        memory = memory and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            if memory:
                record["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
            record["start"], record["end"] = start, end
            record["cost"] = (start - enter) + (time.perf_counter() - end)
        if after is not None:
            after(result, *args)
        record["cost"] = (start - enter) + (time.perf_counter() - end)
        self.overhead_s += record["cost"]
        return result

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "overhead_s": self.overhead_s,
                       "spans": self.spans, "counts": self.counts}, fh)


def install(tr):
    """Wrap the package's public functions in spans, wherever they are bound."""
    import numpy as np

    from biasaudit import attribution, cli, comparability, data, metrics, mitigation, model
    from biasaudit import similarity

    def graph_stats(graph, d, *_):
        tr.add("comparability.calls")
        if "comparability.edges" in tr.counts:
            return
        other = [graph.adjacency @ (d.groups == g) for g in (1, 0)]
        no_cross = np.where(d.groups == 0, other[0], other[1]) == 0
        tr.counts.update({
            "comparability.edges": graph.edge_count,
            "comparability.mean_degree": float(graph.degree.mean()),
            "comparability.isolated": int((graph.degree == 0).sum()),
            "comparability.no_cross_group": int(no_cross.sum()),
        })

    def q_stats(q, *_):
        """Bytes of Q computed from its shape and dtype; 0 when Q is not a stored array."""
        tr.add("similarity.calls")
        m = getattr(q, "matrix", None)
        if isinstance(m, np.ndarray):
            tr.counts["similarity.q_bytes"] = int(np.prod(m.shape)) * m.dtype.itemsize

    def bias_stats(bias, *_):
        values = np.where(bias.defined, bias.values, 0.0)
        tr.counts["attribution.undefined"] = int((~bias.defined).sum())
        tr.counts["attribution.flagged"] = int(
            (bias.defined & (values > attribution.BIAS_THRESHOLD)).sum())

    def written(_, path, *__):
        tr.add("report.bytes", os.path.getsize(path))

    def plan_stats(plan, *_):
        tr.counts["mitigation.synthetic_rows"] = len(plan.samples)

    def counted(name):
        return lambda *_: tr.add(name)

    def synthesize_counting_resamples(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = synthesize(*args, **kwargs)
        tr.add("mitigation.seed_resamples",
               sum("resampling" in str(w.message) for w in caught))
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return plan

    synthesize = mitigation.synthesize_fair_samples
    spans = [
        (data.load_schema, "data.load_schema", False, None),
        (data.load_dataset, "data.load_dataset", False, None),
        (data.fit_normalization, "data.fit_normalization", False, None),
        (data.apply_normalization, "data.apply_normalization", False, None),
        (data.stratified_split, "data.split", False, None),
        (data.encode_features, "data.encode_features", False, None),
        (data.invert_normalization, "data.invert_normalization", False, None),
        (comparability.build_comparability_graph, "comparability.build", True, graph_stats),
        (similarity.symmetric_normalize, "similarity.normalize", True, None),
        (similarity.rwr_proximity, "similarity.proximity", True, q_stats),
        (similarity.adjacency_similarity, "similarity.proximity", True, q_stats),
        (attribution.attribute, "attribution.attribute", False, None),
        (attribution.estimate_credibility, "attribution.credibility", True, None),
        (attribution.estimate_bias, "attribution.bias", True, bias_stats),
        (attribution.BiasReport.to_text, "report.format", False, None),
        (cli._atomic_write, "report.write", False, written),
        (cli._atomic_file, "report.write", False, written),
        (mitigation.plan_removal, "mitigation.plan", False, None),
        (synthesize, "mitigation.plan", False, plan_stats),
        (mitigation.apply_plan, "mitigation.apply", False, None),
        (model.train_classifier, "model.train", False, counted("model.train_calls")),
        (metrics.evaluate_classifier, "metrics.evaluate", False,
         counted("metrics.evaluate_calls")),
    ]

    def spanned(fn, name, memory, after, body=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tr.call(name, body or fn, args, kwargs, memory, after)
        return wrapper

    wrappers = {}
    for fn, name, memory, after in spans:
        body = synthesize_counting_resamples if fn is synthesize else None
        wrappers[id(fn)] = spanned(fn, name, memory, after, body)

    # One explanation per defined sample: counted, not spanned, so the
    # explain loop stays the self time of `attribution.attribute`.
    contributions = attribution.bias_contributions

    @functools.wraps(contributions)
    def counted_contributions(*args, **kwargs):
        tr.counts["attribution.explain_calls"] += 1
        return contributions(*args, **kwargs)

    tr.counts["attribution.explain_calls"] = 0
    wrappers[id(contributions)] = counted_contributions

    targets = [m for name, m in sys.modules.items()
               if name == "biasaudit" or name.startswith("biasaudit.")]
    targets += [attribution.BiasReport]
    for target in targets:
        for attr, value in list(vars(target).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(target, attr, wrapper)


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tr = Tracer()

    def run():
        cli = tr.call("import.biasaudit", importlib.import_module, ("biasaudit.cli",))
        started = time.perf_counter()
        install(tr)
        tr.overhead_s += time.perf_counter() - started
        return tr.call("cli.main", cli.main, (cli_argv,))

    code = tr.call("run", run)
    tr.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
