"""Traced in-process run of the roybounds CLI, and analysis of its spans.

Run as a script, this times `import roybounds.cli`, then alternates
untraced and traced passes over the given commands, each command a call
of `roybounds.cli.run`, for a given number of seconds. The traced passes
wrap the module-level entry points of each layer by reassigning the
attribute where the caller looks it up; each wrapper records a span
(name, start, end, parent, run id) in memory.
Everything is written to one JSON file at exit:

    python3 perfbench/tracer.py --seconds 10 --out spans.json \
        --commands '[["infer", "--data", "s.csv"], ["generalized", "--data", "s.csv"]]'

Imported, it only provides `layer_metrics`, which turns that file into
per-layer numbers; it does not import roybounds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from math import comb

# Metric name -> (unit, direction), in report order.
PER_LAYER = {
    "import.s": ("s", "lower"),
    "import.scipy_loaded": ("0/1", "lower"),
    "cli.load_sample.s": ("s", "lower"),
    "cli.load_sample.rows": ("count", "higher"),
    "cli.tabulate.s": ("s", "lower"),
    "cli.tabulate.calls": ("count", "lower"),
    "cli.emit.s": ("s", "lower"),
    "inference.estimate_theta.s": ("s", "lower"),
    "inference.estimate_theta.calls": ("count", "lower"),
    "inference.bootstrap_draw.s": ("s", "lower"),
    "inference.bootstrap_draw.calls": ("count", "lower"),
    "inference.bootstrap_draw.draws": ("count", "lower"),
    "inference.bootstrap_draw.categories": ("count", "lower"),
    "inference.critical_value.self_s": ("s", "lower"),
    "inference.critical_value.calls": ("count", "lower"),
    "inference.att_ci.self_s": ("s", "lower"),
    "inference.att_ci.calls": ("count", "lower"),
    "inference.assemble_cis.s": ("s", "lower"),
    "inference.iqr_ci.self_s": ("s", "lower"),
    "inference.row_inverse.s": ("s", "lower"),
    "inference.row_inverse.calls": ("count", "lower"),
    "inference.row_inverse.cells_compared": ("count", "lower"),
    "functional.build_subcdf.s": ("s", "lower"),
    "functional.iqr_bounds.s": ("s", "lower"),
    "generalized.compute_all.self_s": ("s", "lower"),
    "generalized.envelopes.calls": ("count", "lower"),
    "generalized.att_bounds.calls": ("count", "lower"),
    "probability.vertices.s": ("s", "lower"),
    "probability.vertices.facet_triples": ("count", "lower"),
    "probability.vertices.bytes_computed": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
}

# Each stacked 4x4 system plus its right-hand side is 20 float64 values.
_BYTES_PER_TRIPLE = 20 * 8

_ROOT = "run"


class Tracer:
    """In-memory span and counter recorder that wraps module attributes."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or None, run id]
        self.counters = []  # [metric name, value, run id]
        self.run_id = 0
        self._stack = []
        self._saved = []

    def span(self, name, count, fn, *args, **kwargs):
        """Call fn inside a span; count(args, result) gives (counter, value) pairs."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run_id])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][1:3] = [start, time.perf_counter()]
            self._stack.pop()
        if count is not None:
            self.counters += [[key, value, self.run_id] for key, value in count(args, result)]
        return result

    def install(self, targets):
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))

            def wrapper(*args, _fn=original, _name=name, _count=count, **kwargs):
                return self.span(_name, _count, _fn, *args, **kwargs)

            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _targets(cli, inference, functional, generalized, probability):
    """(owner, attribute, span name, counter) for every traced entry point.

    `cli` calls `_load_sample`, `_table_from_sample`, `_emit` and its own
    `build_subcdf` binding as globals and reaches the other layers through
    their modules; inside `inference` the helpers are module globals, and
    `vertices` is looked up on `SimplexPolytope`.
    """
    return [
        (cli, "_load_sample", "cli.load_sample",
         lambda args, res: [("cli.load_sample.rows", res.n)]),
        (cli, "_table_from_sample", "cli.tabulate", None),
        (cli, "_emit", "cli.emit", None),
        (cli, "build_subcdf", "functional.build_subcdf", None),
        (inference, "infer_bounds", "inference.infer_bounds", None),
        (inference, "estimate_theta", "inference.estimate_theta", None),
        (inference, "critical_value", "inference.critical_value", None),
        (inference, "_bootstrap_counts", "inference.bootstrap_draw",
         lambda args, res: [("inference.bootstrap_draw.draws", res.shape[0]),
                            ("inference.bootstrap_draw.categories", res.shape[1])]),
        (inference, "att_ci", "inference.att_ci", None),
        (inference, "assemble_cis", "inference.assemble_cis", None),
        (inference, "iqr_ci", "inference.iqr_ci", None),
        (inference, "_row_inverse", "inference.row_inverse",
         lambda args, res: [("inference.row_inverse.cells_compared", args[0].shape[0] * args[0].shape[1])]),
        (functional, "iqr_bounds", "functional.iqr_bounds", None),
        (generalized, "compute_all", "generalized.compute_all", None),
        (generalized, "envelopes", "generalized.envelopes", None),
        (generalized, "att_bounds", "generalized.att_bounds", None),
        (probability.SimplexPolytope, "vertices", "probability.vertices", _facet_triples),
    ]


def _facet_triples(args, result):
    t = comb(4 + len(args[0].halfspaces), 3)
    return [("probability.vertices.facet_triples", t),
            ("probability.vertices.bytes_computed", t * _BYTES_PER_TRIPLE)]


def _run_cli(cli, argv):
    """One in-process CLI call: (exit code, report text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()


def _run_session(cli, commands):
    """The commands in turn: ([exit codes], [report texts])."""
    results = [_run_cli(cli, argv) for argv in commands]
    return [code for code, _ in results], [text for _, text in results]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--commands", required=True, help="JSON list of CLI argument lists, run in turn")
    args = p.parse_args(argv)
    commands = json.loads(args.commands)

    start = time.perf_counter()
    import roybounds.cli as cli

    record = {"import_s": time.perf_counter() - start, "scipy_loaded": int("scipy" in sys.modules)}
    from roybounds import functional, generalized, inference, probability

    targets = _targets(cli, inference, functional, generalized, probability)
    tracer = Tracer()
    # Warm-up pass: first-touch costs land here, not in a timed run.
    codes, texts = _run_session(cli, commands)
    record.update(codes=[codes], outputs=[texts], untraced_s=[], traced_s=[])
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        pass_start = time.perf_counter()
        codes, texts = _run_session(cli, commands)
        record["untraced_s"].append(time.perf_counter() - pass_start)
        record["codes"].append(codes)
        record["outputs"].append(texts)

        tracer.run_id += 1
        tracer.install(targets)
        try:
            start = time.perf_counter()
            codes, texts = tracer.span(_ROOT, None, _run_session, cli, commands)
            record["traced_s"].append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        record["codes"].append(codes)
        record["outputs"].append(texts)
        now = time.perf_counter()
        passes.append(now - pass_start)
        if now + statistics.median(passes) / 2 > deadline:
            break
    record["spans"] = tracer.spans
    record["counters"] = tracer.counters
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(record: dict) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced runs, plus problems found.

    A layer's self time is its span's duration minus the part its child
    spans cover. Counts must repeat exactly from one traced run to the
    next; a count that differs is reported as a problem.
    """
    spans = record["spans"]
    children = {}
    for start, end, parent in ((s[1], s[2], s[3]) for s in spans):
        children.setdefault(parent, []).append((start, end))
    runs = {}
    for i, (name, start, end, _parent, run_id) in enumerate(spans):
        m = runs.setdefault(run_id, dict.fromkeys(PER_LAYER, 0))
        self_s = (end - start) - _covered(children.get(i, ()))
        if name == _ROOT:
            m["trace.uncovered_s"] = self_s
        for key, value in ((f"{name}.s", end - start), (f"{name}.self_s", self_s), (f"{name}.calls", 1)):
            if key in m:
                m[key] += value
    for name, value, run_id in record["counters"]:
        runs[run_id][name] += value

    problems, out = [], {}
    for name, (unit, _better) in PER_LAYER.items():
        values = [m[name] for m in runs.values()]
        if unit not in ("s", "0/1") and len(set(values)) > 1:
            problems.append(f"{name} differs across traced runs: {values}")
        out[name] = statistics.median(values)
    out["import.s"] = record["import_s"]
    out["import.scipy_loaded"] = record["scipy_loaded"]
    out["trace.overhead_s"] = statistics.median(record["traced_s"]) - statistics.median(record["untraced_s"])
    return out, problems


if __name__ == "__main__":
    sys.exit(main())
