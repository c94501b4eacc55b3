"""Outside-in benchmark of the roybounds command-line interface.

Each workload writes seeded CSV inputs, then runs its `roybounds` CLI
commands in turn, one child process at a time (closed loop, one client),
for a fixed number of seconds and reports, per iteration over those
commands, the median wall time, the children's own CPU time and peak RSS,
plus the start-up cost of `import roybounds.cli` in a fresh interpreter.
Every invocation is checked: exit code 0, report valid
against `report_schema.json`, bytes identical across the run, and, for
the pinned seed, a digest of the report's numbers equal to the pinned one.

With `--trace 1` the run is instead made in-process by `tracer.py`, which
wraps each layer's entry points and gives per-layer times and counts.

    python3 perfbench/run.py --workload binary-infer-generalized --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55   # every workload in turn

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gen
import jsonschema
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "pinned.json")

# One entry per CLI command a workload can run: its CSV (written into the
# run's temp cwd), how to make that CSV from the seed, the size recorded
# with every result, and the command line.
COMMANDS = {
    "infer-n200k-k8": {
        "data": "binary_k8.csv",
        "make": lambda seed: gen.binary_csv(seed, n=200_000, k=8),
        "shape": {"n": 200_000, "b": 999, "K": 8},
        "argv": ["infer", "--data", "binary_k8.csv", "--instrument", "z", "--bootstrap", "999"],
    },
    "generalized-k20": {
        "data": "binary_k20.csv",
        "make": lambda seed: gen.binary_csv(seed, n=50_000, k=20),
        "shape": {"n": 50_000, "b": 0, "K": 20},
        "argv": ["generalized", "--data", "binary_k20.csv", "--instrument", "z"],
    },
    "iqr-n5k-b999": {
        "data": "gaussian.csv",
        "make": lambda seed: gen.gaussian_csv(seed, n=5_000),
        "shape": {"n": 5_000, "b": 999, "K": 0},
        "argv": ["iqr", "--data", "gaussian.csv", "--d", "1", "--quantiles", "0.25,0.75", "--bootstrap", "999"],
    },
}

# A workload is a session: one iteration runs its commands in this order,
# one child at a time, and its end-to-end metrics are per iteration. Why
# each workload: see BENCHMARK.json. The two binary commands share one
# workload so that two workloads measure every layer, and each run can be
# long enough (run_seconds) to average over the speed drift of a shared
# host while all runs of both still fit one hour.
WORKLOADS = {
    "binary-infer-generalized": ["infer-n200k-k8", "generalized-k20"],
    "iqr-n5k-b999": ["iqr-n5k-b999"],
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# A workload run must end within 180 s; a child still running when this
# budget is spent is killed and counted as failed.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or tools)."""


def _src_root() -> str:
    """Absolute root that holds the roybounds package of this checkout."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "roybounds", "__init__.py")):
        raise BenchError(f"no roybounds sources under {src}")
    sys.path.insert(0, src)
    spec = importlib.util.find_spec("roybounds")
    return os.path.dirname(os.path.dirname(os.path.abspath(spec.origin)))


def _child_env(src_root: str) -> dict:
    """Environment of every child: the package of this checkout, one thread.

    ROY_THREADS is left unset (the CLI's default of one worker), and the
    BLAS pool is held to one thread as well: on a host of two cores a
    second BLAS thread makes the child's wall time wait on whether that
    thread's core is free, which the program cannot help.
    """
    env = dict(os.environ)
    env.pop("ROY_THREADS", None)
    env["PYTHONPATH"] = src_root
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def launch(argv, cwd, env, deadline):
    """Run one child; return (exit code, stdout bytes, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from this child's own rusage (wait4), not
    from RUSAGE_CHILDREN, whose maxrss is a running maximum over all
    children ever reaped.
    """
    out_path = os.path.join(cwd, ".stdout")
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def report_digest(report: dict) -> str:
    """sha256 of the canonical JSON of the report's numbers.

    Only `bounds` and `confidence` are digested, so added report keys
    (such as diagnostics) do not change it while any changed number does.
    """
    payload = {"bounds": report.get("bounds"), "confidence": report.get("confidence")}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Correctness of one command's reports within a run."""

    def __init__(self, command: str, seed: int, rows: int):
        with open(os.path.join(ROOT, "src", "roybounds", "report_schema.json"), encoding="utf-8") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))
        with open(PINNED, encoding="utf-8") as fh:
            pinned = json.load(fh)
        self.pinned = pinned["digests"].get(command) if seed == pinned["seed"] else None
        self.rows = rows
        self.first = None
        self.digest = None
        self.problems = []

    def check(self, code: int, stdout: bytes) -> bool:
        problem = self._problem(code, stdout)
        if problem:
            self.problems.append(problem)
        return problem is None

    def _problem(self, code, stdout):
        if code != 0:
            return f"exit code {code}"
        if self.first is not None:
            return None if stdout == self.first else "report bytes differ within the run"
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return f"report is not JSON: {exc}"
        errors = [e.message for e in self.validator.iter_errors(report)]
        if errors:
            return f"report fails the schema: {errors[0]}"
        rows = report["digest"].get("rows")
        if rows != self.rows:
            return f"report counts {rows} rows, input has {self.rows}"
        if report.get("findings", {}).get("model_rejected"):
            return "model rejected on data drawn from the model"
        self.digest = report_digest(report)
        if self.pinned is not None and self.digest != self.pinned:
            return f"report digest {self.digest} != pinned {self.pinned}"
        self.first = stdout
        return None


def machine_record() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seed: int, seconds: float, trace: bool, src_root: str, work: str):
    """One run of one workload: (metrics, attempted, failed, record, problems)."""
    labels = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "commands": {}}
    checkers = []
    for label in labels:
        cmd = COMMANDS[label]
        text = cmd["make"](seed)
        with open(os.path.join(work, cmd["data"]), "w", encoding="utf-8") as fh:
            fh.write(text)
        record["commands"][label] = {
            **cmd["shape"],
            "distinct_y": gen.distinct_y(text),
            "sha256": gen.sha256(text),
        }
        checkers.append(Checker(label, seed, cmd["shape"]["n"]))
    env = _child_env(src_root)
    budget_end = time.perf_counter() + RUN_BUDGET_S
    argvs = [[*COMMANDS[label]["argv"], "--seed", str(seed)] for label in labels]
    clis = [[sys.executable, "-m", "roybounds.cli", *argv] for argv in argvs]

    def child(argv):
        return launch(argv, work, env, budget_end)

    if trace:
        metrics, attempted, failed, problems = _measure_traced(argvs, clis, seconds, child, work, checkers, record)
    else:
        metrics, attempted, failed, problems = _measure_cli(labels, clis, seconds, child, checkers, record)
    record["report_digests"] = {label: c.digest for label, c in zip(labels, checkers)}
    record["pinned_digest_checked"] = all(c.pinned is not None for c in checkers)
    return metrics, attempted, failed, record, [p for c in checkers for p in c.problems] + problems


def _measure_cli(labels, clis, seconds, child, checkers, record):
    """End-to-end metrics: the workload's commands as CLI children, per iteration."""

    def setup_probe():
        code, _, wall, _, _ = child([sys.executable, "-c", "import roybounds.cli"])
        if code != 0:
            raise BenchError("import roybounds.cli failed in a fresh interpreter")
        return wall

    # Set-up is a fresh interpreter that only imports the CLI module. The
    # first probe is a warm-up (bytecode and page caches) and is not kept;
    # the others follow every third iteration, so that both sample the
    # same stretch of machine load while most of the run times the CLI.
    setup_probe()
    setup, walls, cpus, rss, passes = [], [], [], [], []
    per_command = {label: {"wall_s": [], "cpu_s": [], "peak_rss_mb": []} for label in labels}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        pass_start = time.perf_counter()
        wall = cpu = peak = 0.0
        for label, cli, checker in zip(labels, clis, checkers):
            code, stdout, w, c, r = child(cli)
            attempted += 1
            failed += not checker.check(code, stdout)
            for key, value in (("wall_s", w), ("cpu_s", c), ("peak_rss_mb", r)):
                per_command[label][key].append(value)
            wall, cpu, peak = wall + w, cpu + c, max(peak, r)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if len(walls) % 3 == 1:
            setup.append(setup_probe())
        now = time.perf_counter()
        passes.append(now - pass_start)
        # Stop where the run ends nearest the deadline: a run then lasts
        # about `seconds` however long one pass is.
        if now + statistics.median(passes) / 2 > deadline:
            break
    record["samples"] = {"iterations": len(walls), "setup_probes": len(setup)}
    for key, values in (("wall_s", walls), ("cpu_s", cpus), ("peak_rss_mb", rss), ("setup_s", setup)):
        record[f"{key}.quartiles"] = _quartiles(values)
    if len(labels) > 1:
        record["per_command_median"] = {
            label: {key: statistics.median(values) for key, values in m.items()} for label, m in per_command.items()
        }
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    return metrics, attempted, failed, []


def _measure_traced(argvs, clis, seconds, child, work, checkers, record):
    """Per-layer metrics from tracer.py, checked against the untraced CLI."""
    spans_path = os.path.join(work, "spans.json")
    code, _, _, _, _ = child(
        [sys.executable, os.path.join(HERE, "tracer.py"), "--seconds", str(seconds),
         "--out", spans_path, "--commands", json.dumps(argvs)]
    )
    if code != 0:
        raise BenchError(f"traced run exited with {code}")
    with open(spans_path, encoding="utf-8") as fh:
        traced = json.load(fh)
    # The CLI as a user runs it sets the bytes every in-process run must give.
    attempted = failed = 0
    for cli, checker in zip(clis, checkers):
        code, stdout, _, _, _ = child(cli)
        attempted += 1
        failed += not checker.check(code, stdout)
    for codes, texts in zip(traced["codes"], traced["outputs"]):
        for code, text, checker in zip(codes, texts, checkers):
            attempted += 1
            failed += not checker.check(code, text.encode("utf-8"))
    metrics, problems = tracer.layer_metrics(traced)
    record["traced_runs"] = len(traced["traced_s"])
    return metrics, attempted, failed, problems


def run_workload(name, seed, seconds, trace, src_root):
    """Measure one workload in a scratch directory inside the checkout and print it."""
    work_parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_parent, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=work_parent)
    try:
        metrics, attempted, failed, record, problems = measure(name, seed, seconds, trace, src_root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_parent)
    units = {k: unit for k, (unit, _) in tracer.PER_LAYER.items()} if trace else END_TO_END
    print(f"[{name}] inputs: {json.dumps(record, sort_keys=True)}")
    for key, value in metrics.items():
        print(f"[{name}] {key} = {value:.6g} {units[key]}")
    for label, m in record.get("per_command_median", {}).items():
        for key, value in m.items():
            print(f"[{name}] {label} {key} = {value:.6g} {END_TO_END[key]}")
    print(f"[{name}] failed_frac = {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    for problem in problems:
        print(f"[{name}] FAILED CHECK: {problem}")
    for label, digest in record["report_digests"].items():
        print(f"[{name}] {label} report digest (seed {seed}): {digest}")
    return metrics, units, attempted, failed, not problems and failed == 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        src_root = _src_root()
        print(f"machine: {json.dumps(machine_record(), sort_keys=True)}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            metrics, units, attempted, failed, ok = run_workload(
                name, args.seed, args.seconds, bool(args.trace), src_root
            )
            result["correct"] &= ok
            result["attempted"] += attempted
            result["failed"] += failed
            prefix = f"{name}." if len(names) > 1 else ""
            for key, value in metrics.items():
                result["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
