"""Golden reports: rerun each recorded command line and rewrite its file.

Each ``*.json`` file in this directory is one command line of the CLI:

    argv    the arguments after ``roybounds``
    inputs  the files the command reads, by name, as text
    exit    the exit code
    stdout  what it writes to stdout
    stderr  what it writes to stderr
    files   every file it leaves in its working directory besides the inputs
    numpy   the numpy version the bytes were recorded under, for the command
            lines that draw from numpy's random streams (these may change
            between numpy feature releases)

``tests/test_golden.py`` runs each line through ``cli.run`` in an empty
directory and compares the bytes.  Run this script from the repository root,
with the package on the path, to rewrite the expected outputs after a change
that is meant to move them:

    PYTHONPATH=src python tests/golden/regen.py

It prints old -> new for every interval whose lo, hi, sharp or label moved,
and names every file whose bytes changed.  A new line is added by writing a
file that holds only ``argv`` (and ``inputs``) and running the script.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from roybounds import cli

GOLDEN = Path(__file__).resolve().parent
_FIELDS = ("exit", "stdout", "stderr", "files")


def cases() -> list[Path]:
    return sorted(GOLDEN.glob("*.json"))


def run_case(case: dict, cwd: Path) -> dict:
    """Run one command line in the empty directory cwd; return its outputs."""
    for name, text in case.get("inputs", {}).items():
        (cwd / name).write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(case["argv"]))
    finally:
        os.chdir(old)
    files = {
        p.name: p.read_bytes().decode("utf-8")
        for p in sorted(cwd.iterdir())
        if p.name not in case.get("inputs", {})
    }
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def _intervals(text: str, where: str) -> dict:
    """Every interval of a JSON report, by its path in the report."""
    try:
        report = json.loads(text)
    except ValueError:
        return {}
    found = {}

    def walk(node, path):
        if isinstance(node, dict):
            if "lo" in node and "hi" in node:
                found[f"{where}{path}"] = {k: node.get(k) for k in ("lo", "hi", "sharp", "label")}
            for key, val in node.items():
                walk(val, f"{path}.{key}" if path else key)

    walk(report, "")
    return found


def _report_intervals(outputs: dict) -> dict:
    found = _intervals(outputs.get("stdout", ""), "")
    for name, text in outputs.get("files", {}).items():
        if name.endswith(".json"):
            found.update(_intervals(text, f"{name}:"))
    return found


def main() -> int:
    for path in cases():
        case = json.loads(path.read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory() as tmp:
            new = run_case(case, Path(tmp))
        old = {k: case[k] for k in _FIELDS if k in case}
        if old == new:
            continue
        moved = [k for k in _FIELDS if old.get(k) != new[k]]
        print(f"{path.name}: {'new' if not old else 'changed ' + ', '.join(moved)}")
        before, after = _report_intervals(old), _report_intervals(new)
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                print(f"  {key}: {before.get(key)} -> {after.get(key)}")
        case.update(new)
        case.pop("numpy", None)
        # Only these draw from numpy's random streams; exit 1 is an input
        # error, before any draw.
        argv = case["argv"]
        if (argv[0] == "simulate" or "--bootstrap" in argv) and case["exit"] != 1:
            case["numpy"] = np.__version__
        path.write_text(json.dumps(case, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
