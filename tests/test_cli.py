import csv
import importlib.util
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import cli, functional, generalized, inference, oracle, probability
from roybounds.errors import InputError, RoyBoundsError
from roybounds.functional import OutcomeSample


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_binary_csv(path, seed=0, n=400, with_z=True):
    rng = oracle.make_rng(seed)
    y0 = (rng.random(n) < 0.4).astype(int)
    y1 = (rng.random(n) < 0.55).astype(int)
    d = np.where(y1 > y0, 1, np.where(y1 < y0, 0, (rng.random(n) < 0.5).astype(int)))
    y = np.where(d == 1, y1, y0)
    z = rng.choice(["a", "b"], size=n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "d"] + (["z"] if with_z else []))
        for i in range(n):
            row = [int(y[i]), int(d[i])]
            if with_z:
                row.append(z[i])
            w.writerow(row)
    return path


def write_design(tmp_path, design):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design))
    return path


def test_binary_from_cells(capsys):
    cells = json.dumps({"q00": 0.2, "q01": 0.1, "q10": 0.3, "q11": 0.4})
    code, out, _ = run_cli(["binary", "--cells", cells], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["bounds"]["p00"] == pytest.approx(0.3)
    assert rep["bounds"]["p10"]["hi"] == pytest.approx(0.3)
    assert "digest" in rep and "command" in rep


def test_binary_from_csv(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv", with_z=False)
    code, out, _ = run_cli(["binary", "--data", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["digest"]["rows"] == 400
    assert 0.0 <= rep["bounds"]["p00"] <= 1.0


def test_binary_missing_file(capsys):
    code, _, err = run_cli(["binary", "--data", "/nonexistent.csv"], capsys)
    assert code == 1
    assert "error" in err


SINGLE_Z_BAD_CELLS = [
    "{bad json",
    "notjson",
    "[1,2]",
    "5",
    "{}",
    '{"q00":"a","q01":0,"q10":0,"q11":1}',
    '{"q00":NaN,"q01":0,"q10":0,"q11":1}',
    # Only JSON numbers: no string, no boolean, no integer too large for a float.
    '{"q00":"0.2","q01":0.1,"q10":0.3,"q11":0.4}',
    '{"q00":true,"q01":0,"q10":0,"q11":0}',
    '{"q00":1' + "0" * 400 + ',"q01":0,"q10":0,"q11":0}',
]
MULTI_Z_BAD_CELLS = ['{"a":{"q00":1}}', '{"a":5}']


def test_bad_cells_payload(capsys):
    cases = [["binary", "--cells", c] for c in SINGLE_Z_BAD_CELLS]
    for c in SINGLE_Z_BAD_CELLS + MULTI_Z_BAD_CELLS:
        cases += [["generalized", "--cells", c], ["oracle", "--objective", "ey0", "--cells", c]]
    for argv in cases:
        assert_input_error(argv, capsys)


def assert_input_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, ""), argv
    assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)
    return err


def test_fractional_binary_outcome_rejected(tmp_path, capsys):
    path = tmp_path / "frac.csv"
    path.write_text("y,d,z\n0.7,1,a\n1,0,a\n0,1,b\n1,1,b\n")
    for argv in (["binary"], ["binary", "--instrument", "z"], ["generalized", "--instrument", "z"]):
        err = assert_input_error(argv + ["--data", str(path)], capsys)
        assert "0.7" in err


def test_non_finite_weight_rejected(tmp_path, capsys):
    for bad in ("nan", "inf", "-inf", "1e308"):
        path = tmp_path / "w.csv"
        path.write_text(f"y,d,z,w\n0,1,a,1e308\n1,0,a,{bad}\n0,1,b,1\n1,1,b,1\n")
        for cmd in (["binary"], ["generalized", "--instrument", "z"], ["infer", "--instrument", "z"]):
            assert_input_error(cmd + ["--data", str(path), "--weight", "w"], capsys)


def test_level_and_bootstrap_range_checked(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv")
    sample = ["--data", str(path)]
    data = [*sample, "--instrument", "z"]
    for argv in (
        ["infer", *data, "--level", "1.5"],
        ["iqr", *sample, "--level", "1.5", "--bootstrap", "100"],
        ["generalized", *data, "--level", "0", "--bootstrap", "100"],
        ["iqr", *sample, "--bootstrap", "-5"],
        ["infer", *data, "--level", "nan"],
        ["infer", *data, "--level", "abc"],
    ):
        assert_input_error(argv, capsys)
    # critical_value's own minimum still applies behind the range check, and
    # iqr_ci has the same one
    for argv in (["generalized", *data, "--bootstrap", "50"], ["iqr", *sample, "--bootstrap", "1"]):
        assert "100" in assert_input_error(argv, capsys)


def test_tau_y_range_checked(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv")
    argv = ["binary", "--data", str(path), "--instrument", "z", "--tau-y"]
    for bad in ("nan", "inf", "-1"):
        assert "--tau-y" in assert_input_error(argv + [bad], capsys)
    assert run_cli(argv + ["0"], capsys)[0] == 2
    assert run_cli(argv + ["0.5"], capsys)[0] == 0


def test_generalized_data_needs_instrument(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv")
    err = assert_input_error(["generalized", "--data", str(path)], capsys)
    assert "--instrument column required" in err


def test_negative_seed_rejected(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv")
    assert_input_error(["infer", "--data", str(path), "--instrument", "z", "--seed", "-1"], capsys)


# A numeric flag, a value it rejects, and the one line that value gives.
FLAG_MESSAGES = [
    ("--level", "0", "error: argument --level: need 0 < level < 1, got '0'"),
    ("--level", "1", "error: argument --level: need 0 < level < 1, got '1'"),
    ("--level", "nan", "error: argument --level: need 0 < level < 1, got 'nan'"),
    ("--level", "inf", "error: argument --level: need 0 < level < 1, got 'inf'"),
    ("--level", "abc", "error: argument --level: need 0 < level < 1, got 'abc'"),
    ("--bootstrap", "-1", "error: argument --bootstrap: need a nonnegative integer, got '-1'"),
    ("--bootstrap", "1.5", "error: argument --bootstrap: need a nonnegative integer, got '1.5'"),
    ("--seed", "-1", "error: argument --seed: need a nonnegative integer, got '-1'"),
    ("--n", "0", "error: argument --n: need a positive integer, got '0'"),
    ("--n", "-3", "error: argument --n: need a positive integer, got '-3'"),
    ("--tau-y", "-0.1", "error: argument --tau-y: need a finite tolerance >= 0, got '-0.1'"),
    ("--tau-y", "nan", "error: argument --tau-y: need a finite tolerance >= 0, got 'nan'"),
    ("--tau-y", "inf", "error: argument --tau-y: need a finite tolerance >= 0, got 'inf'"),
    ("--tau-y", "x", "error: argument --tau-y: need a finite tolerance >= 0, got 'x'"),
]


@pytest.mark.parametrize("flag, value, line", FLAG_MESSAGES, ids=[f"{f}={v}" for f, v, _ in FLAG_MESSAGES])
def test_numeric_flag_messages(tmp_path, capsys, flag, value, line):
    data = str(write_binary_csv(tmp_path / "s.csv"))
    # --n with the design of BAD_DESIGNS' zero-n case, which is valid but for its --n.
    design = write_design(tmp_path, BAD_DESIGNS["zero-n"][0])
    command = {
        "--n": ["simulate", "--design", str(design), "--out", str(tmp_path / "sample.csv")],
        "--tau-y": ["binary", "--data", data, "--instrument", "z"],
    }.get(flag, ["infer", "--data", data, "--instrument", "z"])
    assert assert_input_error([*command, flag, value], capsys) == line + "\n"
    assert not (tmp_path / "sample.csv").exists()


def test_unreadable_csv_rejected(tmp_path, capsys):
    for name, data in (("nul.csv", b"y,d\n0,\x001\n"), ("latin1.csv", b"y,d\n\xe9,1\n")):
        path = tmp_path / name
        path.write_bytes(data)
        assert_input_error(["binary", "--data", str(path)], capsys)


def test_import_leaves_scipy_unloaded(cli_env):
    # Only the response-type LP needs scipy, and it imports it when it runs:
    # no module loads it on import.
    code = (
        "import sys; import roybounds; a = 'scipy' in sys.modules; "
        "import roybounds.cli; b = 'scipy' in sys.modules; "
        "from roybounds import *; c = 'scipy' in sys.modules; "
        "import roybounds.oracle; print(a, b, c, 'scipy' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"] * 4


def test_oracle_commands_without_scipy(tmp_path, cli_env):
    # scipy is the [oracle] extra. Without it simulate and the Artstein
    # halfspaces write the same bytes as with it; only the LP of
    # oracle --objective needs it, and gives one error line naming the extra.
    (tmp_path / "gauss.json").write_text(json.dumps({"type": "gaussian", "rho": 0.3}))
    (tmp_path / "binary.json").write_text(json.dumps(
        {"joint": {"type": "discrete", "support": [[0, 0], [0, 1], [1, 0], [1, 1]], "probs": [0.3, 0.2, 0.2, 0.3]},
         "z_labels": ["a", "b"], "z_weights": [0.4, 0.6]}
    ))
    cells = '{"q00":0.2,"q01":0.1,"q10":0.3,"q11":0.4}'
    blocked = "sys.modules['scipy'] = None; "

    def run(argv, block=""):
        code = f"import sys; {block}from roybounds.cli import run; sys.exit(run(sys.argv[1:]))"
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=cli_env, cwd=tmp_path)

    # The binary simulate last: its sample is the --data input below.
    for argv in (
        ["oracle", "--cells", cells],
        ["oracle", "--cells", cells, "--variant", "generalized"],
        ["binary", "--cells", cells],
        ["simulate", "--design", "gauss.json", "--n", "300", "--out", "s.csv"],
        ["simulate", "--design", "binary.json", "--n", "300", "--out", "s.csv"],
    ):
        runs = []
        for block in ("", blocked):
            for f in tmp_path.glob("s.csv*"):
                f.unlink()
            res = run(argv, block)
            written = sorted((f.name, f.read_bytes()) for f in tmp_path.glob("s.csv*"))
            runs.append((res.returncode, res.stdout, res.stderr, written))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == 0 and runs[0][1], runs[0][2]
    assert len(runs[0][3]) == 2
    for source in (["--cells", f'{{"a":{cells},"b":{cells}}}'], ["--data", "s.csv", "--instrument", "z"]):
        argv = ["oracle", *source, "--objective", "ey0"]
        assert run(argv).returncode == 0
        res = run(argv, blocked)
        assert res.returncode == 1 and res.stdout == b""
        err = res.stderr.decode()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "roybounds[oracle]" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1


# Options of every subcommand that reads a sample.
SAMPLE_OPTIONS = {
    "--data", "--outcome", "--sector", "--weight", "--filter", "--out", "--seed",
}
DECLARED = {
    "binary": SAMPLE_OPTIONS | {"--format", "--instrument", "--cells", "--tau-y"},
    "generalized": SAMPLE_OPTIONS | {"--format", "--instrument", "--cells", "--level", "--bootstrap"},
    "functional": SAMPLE_OPTIONS,
    "iqr": SAMPLE_OPTIONS | {"--format", "--d", "--quantiles", "--level", "--bootstrap"},
    "infer": SAMPLE_OPTIONS | {"--format", "--instrument", "--level", "--bootstrap"},
    "simulate": {"--design", "--n", "--out", "--seed"},
    "oracle": SAMPLE_OPTIONS | {"--format", "--instrument", "--cells", "--variant", "--objective"},
}


def test_each_subcommand_declares_only_the_options_it_reads(declared_options):
    assert declared_options == DECLARED
    assert sum(map(len, DECLARED.values())) == 69


def test_readme_flag_table_matches_parser(declared_options):
    # The table's columns are the subcommands; a marked cell means the
    # subcommand takes the flag of its row.
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    header = next(line for line in lines if line.startswith("| flag |"))
    commands = [c.strip() for c in header.strip("|").split("|")][1:-1]
    table = {cmd: set() for cmd in commands}
    for line in lines:
        if line.startswith("| `--"):
            flag, *marks = [c.strip() for c in line.strip("|").split("|")][:-1]
            for cmd, mark in zip(commands, marks, strict=True):
                if mark:
                    table[cmd].add(flag.strip("`").split()[0])
    assert table == declared_options


CELLS = '{"q00":0.2,"q01":0.1,"q10":0.3,"q11":0.4}'
# Every option some subcommand no longer takes, with a value it would have read.
REMOVED_VALUES = {
    "--data": "s.csv", "--cells": CELLS, "--outcome": "y", "--sector": "d", "--instrument": "z",
    "--weight": "w", "--filter": "z=a", "--level": "0.9", "--bootstrap": "200",
    "--quantiles": "0.25,0.75", "--format": "json",
}


@pytest.fixture
def valid_commands(tmp_path, monkeypatch):
    """A command line per subcommand that exits 0, run in tmp_path."""
    monkeypatch.chdir(tmp_path)
    write_binary_csv(tmp_path / "s.csv")
    (tmp_path / "design.json").write_text('{"type": "gaussian"}')
    return {
        "binary": ["binary", "--cells", CELLS],
        "generalized": ["generalized", "--cells", CELLS],
        "functional": ["functional", "--data", "s.csv"],
        "iqr": ["iqr", "--data", "s.csv"],
        "infer": ["infer", "--data", "s.csv", "--instrument", "z", "--bootstrap", "100"],
        "simulate": ["simulate", "--design", "design.json", "--n", "50", "--out", "out.csv"],
        "oracle": ["oracle", "--cells", CELLS],
    }


def test_valid_commands_run(valid_commands, capsys):
    for argv in valid_commands.values():
        assert run_cli(argv, capsys)[0] == 0, argv


@pytest.mark.parametrize(
    "cmd, extra, message",
    [
        (cmd, [flag, REMOVED_VALUES[flag]], f"unrecognized arguments: {flag}")
        for cmd in DECLARED
        for flag in sorted(REMOVED_VALUES.keys() - DECLARED[cmd])
        if (cmd, flag) != ("functional", "--format")  # listed last, below
    ]
    + [
        # abbreviations bind to no option
        ("functional", ["--d", "1"], "unrecognized arguments: --d 1"),
        ("generalized", ["--inst", "z", "--boot", "100"], "unrecognized arguments: --inst z --boot 100"),
        ("iqr", ["--boot", "200"], "unrecognized arguments: --boot 200"),
        # infer draws 999 by default, and an explicit 0 is too few
        ("infer", ["--bootstrap", "0"], "at least 100"),
    ]
    # functional's report holds no interval for --format csv to write. Listed
    # last, so that the cases above keep the positional ids they had before.
    + [("functional", ["--format", "json"], "unrecognized arguments: --format")],
)
def test_options_a_subcommand_does_not_read_are_rejected(valid_commands, capsys, cmd, extra, message):
    assert message in assert_input_error(valid_commands[cmd] + extra, capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        # --cells is the whole input: a sample would be left unread
        (["binary", "--cells", CELLS, "--data", "s.csv", "--instrument", "z"], "--data: not allowed with argument --cells"),
        (["generalized", "--cells", CELLS, "--data", "s.csv"], "--data: not allowed with argument --cells"),
        (["oracle", "--cells", CELLS, "--data", "s.csv"], "--data: not allowed with argument --cells"),
        (["oracle", "--data", "s.csv", "--instrument", "z", "--objective", "ey0", "--cells", CELLS],
         "--data: not allowed with argument --cells"),
        # a bootstrap resamples a sample, and cells are none
        (["generalized", "--cells", CELLS, "--bootstrap", "200", "--level", "0.5"],
         "--bootstrap: not allowed with argument --cells"),
        # the objective's linear program has no variant
        (["oracle", "--cells", CELLS, "--objective", "ey0", "--variant", "generalized"],
         "--variant: not allowed with argument --objective"),
        (["oracle", "--cells", CELLS, "--objective", "p11", "--variant", "roy"],
         "--variant: not allowed with argument --objective"),
    ],
)
def test_options_that_would_be_ignored_together_are_rejected(valid_commands, capsys, argv, message):
    assert message in assert_input_error(argv, capsys)


# Every option that reads a sample, with a value: --cells leaves each one unread.
SAMPLE_VALUES = {"--outcome": "y", "--sector": "d", "--instrument": "z", "--weight": "w", "--filter": "z=a"}


@pytest.mark.parametrize(
    "argv, message",
    [
        ([cmd, "--cells", CELLS, *extra, flag, value], f"{flag}: not allowed with argument --cells")
        for cmd, extra in (("binary", []), ("generalized", []), ("oracle", ["--objective", "ey0"]))
        for flag, value in SAMPLE_VALUES.items()
    ]
    + [
        # the default value, given, is still ignored
        (["binary", "--cells", CELLS, "--outcome=y"], "--outcome: not allowed with argument --cells"),
        # a tolerance of the outcome's dependence on an instrument needs one
        (["binary", "--data", "s.csv", "--tau-y", "0.1"], "--tau-y: not allowed without argument --instrument"),
        (["binary", "--data", "s.csv", "--tau-y", "0"], "--tau-y: not allowed without argument --instrument"),
        # a confidence level needs bootstrap draws
        (["generalized", "--data", "s.csv", "--instrument", "z", "--level", "0.9"],
         "--level: not allowed without argument --bootstrap"),
        (["iqr", "--data", "s.csv", "--d", "1", "--level", "0.9"], "--level: not allowed without argument --bootstrap"),
        (["iqr", "--data", "s.csv", "--level", "0.9", "--bootstrap", "0"],
         "--level: not allowed without argument --bootstrap"),
        # of the oracle's reports, only the objective's bounds are an interval
        (["oracle", "--cells", CELLS, "--format", "csv"], "--format: not allowed without argument --objective"),
        (["oracle", "--cells", CELLS, "--format=json"], "--format: not allowed without argument --objective"),
    ],
)
def test_options_a_command_would_ignore_are_rejected(valid_commands, capsys, argv, message):
    assert message in assert_input_error(argv, capsys)


def test_options_read_with_what_they_need_are_accepted(valid_commands, capsys):
    for argv in (
        ["binary", "--data", "s.csv", "--instrument", "z", "--tau-y", "0.5"],
        ["binary", "--data", "s.csv", "--outcome", "y", "--sector", "d"],
        ["iqr", "--data", "s.csv", "--level", "0.9", "--bootstrap", "100"],
        ["generalized", "--data", "s.csv", "--instrument", "z", "--level", "0.9", "--bootstrap", "100"],
        ["infer", "--data", "s.csv", "--instrument", "z", "--level", "0.9", "--bootstrap", "100"],
        ["binary", "--cells", CELLS, "--out", "r.json", "--format", "csv", "--seed", "3"],
    ):
        assert run_cli(argv, capsys)[0] == 0, argv


def test_generalized_rejection_exit_code(tmp_path, capsys):
    # tables that no generalized selection model can produce
    cells = json.dumps(
        {
            "z1": {"q00": 0.9, "q01": 0.0, "q10": 0.0, "q11": 0.1},
            "z2": {"q00": 0.0, "q01": 0.1, "q10": 0.9, "q11": 0.0},
        }
    )
    code, out, _ = run_cli(["generalized", "--cells", cells], capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["findings"]["model_rejected"] is True


REJECTED_CELLS = {
    "z1": {"q00": 0.9, "q01": 0.0, "q10": 0.0, "q11": 0.1},
    "z2": {"q00": 0.0, "q01": 0.1, "q10": 0.9, "q11": 0.0},
}
REJECTED_REASON = "instrument table inconsistent with the generalized model"


def strict_json(text):
    """A report parsed as strict JSON, in which NaN and Infinity are no values."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def write_cells_csv(path, counts):
    """A y,d,z sample with counts[z][c] rows in cell c = q00, q01, q10, q11 at z."""
    with open(path, "w", newline="") as fh:
        fh.write("y,d,z\n")
        for z, row in counts.items():
            for c, m in enumerate(row):
                fh.write(f"{c // 2},{c % 2},{z}\n" * m)
    return path


def write_sector_less_csv(path, weighted=False):
    """3000 rows at z in {a, b}: at b every row is in sector 0, or with
    weighted=True, its sector-1 rows carry weight 1e-14 and the others 1."""
    rng = oracle.make_rng(17)
    n = 3000
    z = np.where(rng.random(n) < 0.5, "a", "b")
    y0, y1 = (rng.random(n) < 0.4).astype(int), (rng.random(n) < 0.55).astype(int)
    d = np.where(y1 > y0, 1, np.where(y1 < y0, 0, (rng.random(n) < 0.5).astype(int)))
    if not weighted:
        d[z == "b"] = 0
    w = np.where((z == "b") & (d == 1), 1e-14, 1.0)
    y = np.where(d == 1, y1, y0)
    with open(path, "w", newline="") as fh:
        fh.write("y,d,z,w\n" + "".join(f"{a},{b},{c},{e!r}\n" for a, b, c, e in zip(y, d, z, w.tolist())))
    return path


def test_generalized_enumerates_no_vertices(tmp_path, capsys, monkeypatch):
    def vertices(self):
        raise AssertionError("generalized enumerated polytope vertices")

    monkeypatch.setattr(probability.SimplexPolytope, "vertices", vertices)
    feasible = {
        "z1": {"q00": 0.1, "q01": 0.3, "q10": 0.2, "q11": 0.4},
        "z2": {"q00": 0.3, "q01": 0.1, "q10": 0.1, "q11": 0.5},
    }
    # EY0 crosses by 1e-10, less than the 1e-9 tolerance of vertex enumeration.
    barely = {
        "z1": {"q00": 0.3, "q01": 0.05, "q10": 0.6, "q11": 0.05},
        "z2": {"q00": 0.1, "q01": 0.1, "q10": 0.7 + 1e-10, "q11": 0.1 - 1e-10},
    }
    sample = write_binary_csv(tmp_path / "s.csv", seed=3)
    # Each z's rows in the proportions of REJECTED_CELLS.
    rejected = write_cells_csv(tmp_path / "r.csv", {"z1": (9, 0, 0, 1), "z2": (0, 1, 9, 0)})
    for argv, expect in (
        (["generalized", "--cells", json.dumps(feasible)], 0),
        (["generalized", "--cells", json.dumps(REJECTED_CELLS)], 2),
        (["generalized", "--cells", json.dumps(barely)], 2),
        (["generalized", "--data", str(sample), "--instrument", "z", "--bootstrap", "200"], 0),
        (["generalized", "--data", str(rejected), "--instrument", "z"], 2),
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (expect, ""), argv
        rep = strict_json(out)
        if expect:
            # The one reason, and no bounds.
            assert rep["findings"] == {"model_rejected": True, "reasons": [REJECTED_REASON]}
            assert rep["bounds"] == {}
        else:
            assert "ey0" in rep["bounds"] and not rep["bounds"]["crossed"]


def test_no_bounds_command_builds_a_polytope(tmp_path, capsys, monkeypatch):
    # Polytopes serve only the oracle and the tests: with building or
    # enumerating one made to raise, every bounds command gives the same
    # exit code and report bytes.
    monkeypatch.chdir(tmp_path)
    write_binary_csv(tmp_path / "s.csv")
    rng = oracle.make_rng(6)
    rows = "".join(f"{rng.normal():.3f},{int(rng.random() < 0.6)}\n" for _ in range(200))
    (tmp_path / "c.csv").write_text("y,d\n" + rows)
    two_z = {
        "z1": {"q00": 0.1, "q01": 0.3, "q10": 0.2, "q11": 0.4},
        "z2": {"q00": 0.3, "q01": 0.1, "q10": 0.1, "q11": 0.5},
    }
    commands = [
        ["binary", "--cells", CELLS],
        ["binary", "--data", "s.csv"],
        ["binary", "--data", "s.csv", "--instrument", "z", "--tau-y", "1"],
        ["generalized", "--cells", json.dumps(two_z)],
        ["generalized", "--cells", json.dumps(REJECTED_CELLS)],
        ["generalized", "--data", "s.csv", "--instrument", "z", "--bootstrap", "200"],
        ["infer", "--data", "s.csv", "--instrument", "z", "--bootstrap", "200"],
        ["iqr", "--data", "c.csv", "--bootstrap", "200"],
        ["functional", "--data", "c.csv"],
    ]
    unpatched = [run_cli(argv, capsys) for argv in commands]
    assert [code for code, _, _ in unpatched] == [0, 0, 0, 0, 2, 0, 0, 0, 0]

    def refuse(*args, **kwargs):
        raise AssertionError("a bounds command built or enumerated a polytope")

    monkeypatch.setattr(probability.SimplexPolytope, "from_rows", refuse)
    monkeypatch.setattr(probability.SimplexPolytope, "vertices", refuse)
    for argv, before in zip(commands, unpatched):
        assert run_cli(argv, capsys) == before, argv


def test_generalized_reports_bounds_without_att_when_a_z_lacks_a_sector(tmp_path, capsys):
    path = write_sector_less_csv(tmp_path / "s.csv")
    cells = json.dumps(
        {
            "a": {"q00": 0.2, "q01": 0.2, "q10": 0.3, "q11": 0.3},
            "b": {"q00": 0.5, "q01": 0.0, "q10": 0.5, "q11": 0.0},
        }
    )
    for argv in (
        ["generalized", "--data", str(path), "--instrument", "z"],
        ["generalized", "--data", str(path), "--instrument", "z", "--bootstrap", "200"],
        ["generalized", "--cells", cells],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), argv
        rep = strict_json(out)
        for section in (rep["bounds"], rep.get("confidence", {"ey0": {}})):
            assert "ey0" in section and "att1" not in section and "att0" not in section
        for key in ("ey1", "ate", "benefit_strict", "benefit_weak", "mobility"):
            assert key in rep["bounds"]


def test_reports_are_strict_json(valid_commands, capsys):
    # P(Y=0,D=0|a) is zero, so the regret bound at a is undefined: null.
    cells = json.dumps(
        {
            "a": {"q00": 0, "q01": 0.3, "q10": 0.3, "q11": 0.4},
            "b": {"q00": 0.1, "q01": 0.3, "q10": 0.2, "q11": 0.4},
        }
    )
    code, out, _ = run_cli(["generalized", "--cells", cells], capsys)
    assert code == 0
    regrets = strict_json(out)["bounds"]["regret_by_z"]
    assert regrets["a"] is None and 0.0 <= regrets["b"] <= 1.0
    for argv in valid_commands.values():
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and strict_json(out), argv


def test_infer_leaves_out_every_att_by_one_rule(tmp_path, capsys):
    # At b the sector-1 rows weigh 1e-14: P(D=1|b) <= 1e-12, so neither
    # the plug-in ATT nor its bootstrap interval is reported.
    path = write_sector_less_csv(tmp_path / "s.csv", weighted=True)
    argv = ["infer", "--data", str(path), "--instrument", "z", "--weight", "w", "--bootstrap", "200"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    bounds = strict_json(out)["bounds"]
    assert "ey0" in bounds
    for key in ("att1", "att0", "att1_bootstrap", "att0_bootstrap"):
        assert key not in bounds


def test_generalized_with_inference(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv", seed=3)
    code, out, _ = run_cli(
        ["generalized", "--data", str(path), "--instrument", "z", "--bootstrap", "200"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert "confidence" in rep
    assert rep["confidence"]["ey0"]["lo"] <= rep["confidence"]["ey0"]["hi"]


def test_filter_flag(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv", seed=4)
    code, out, _ = run_cli(
        ["binary", "--data", str(path), "--filter", "z=a"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert 0 < rep["digest"]["rows"] < 400


def test_generalized_bootstrap_tabulates_once(tmp_path, capsys, monkeypatch):
    calls = []
    tabulate = inference.tabulate
    monkeypatch.setattr(inference, "tabulate", lambda s: calls.append(s) or tabulate(s))
    path = write_binary_csv(tmp_path / "s.csv", seed=3)
    argv = ["generalized", "--data", str(path), "--instrument", "z", "--bootstrap", "200"]
    assert run_cli(argv, capsys)[0] == 0
    assert len(calls) == 1


def dictreader_load_sample(args) -> OutcomeSample:
    """The one-dict-per-row loader `cli._load_sample` replaced, kept as its reference."""
    if not args.data:
        raise InputError("need --data FILE (binary, generalized and oracle also take --cells)")
    try:
        with open(args.data, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise InputError(f"{args.data}: missing header row")
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(str(exc)) from exc
    for f in args.filter:
        if "=" not in f:
            raise InputError(f"bad --filter {f!r}, expected COL=VALUE")
        col, val = f.split("=", 1)
        rows = [r for r in rows if (r.get(col) or "") == val]
    if not rows:
        raise InputError("no rows after filtering")
    y, d, w, z = [], [], [], []
    for i, r in enumerate(rows, start=2):
        try:
            y.append(float(r[args.outcome]))
            d.append(int(r[args.sector]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"row {i}: bad outcome/sector field ({exc})") from exc
        if args.weight:
            try:
                w.append(float(r[args.weight]))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"row {i}: bad weight ({exc})") from exc
        if args.instrument:
            if r.get(args.instrument) in (None, ""):
                raise InputError(f"row {i}: missing instrument value")
            z.append(r[args.instrument])
    try:
        return OutcomeSample.from_arrays(
            np.array(y),
            np.array(d),
            np.array(w) if w else None,
            z=np.array(z, dtype=object) if z else None,
        )
    except RoyBoundsError as exc:
        raise InputError(str(exc)) from exc


def _load_or_error(load, args):
    try:
        s = load(args)
    except InputError as exc:
        return str(exc)
    # Both loaders code the labels in OutcomeSample.from_arrays: check the order itself.
    assert s.labels is None or list(s.labels) == sorted(set(s.labels), key=str)
    z = None if s.z is None else (s.z.dtype, s.z.tolist(), s.labels)
    return [(a.dtype, a.shape, a.tobytes()) for a in (s.y, s.d, s.w)] + [z]


def assert_loaders_agree(path, text, *options):
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    args = cli._make_parser().parse_args(["binary", "--data", str(path), *options])
    ref = _load_or_error(dictreader_load_sample, args)
    assert _load_or_error(cli._load_sample, args) == ref, (text, options)
    return ref


LOADER_CASES = [
    # blank lines and short rows
    ("y,d,z\n\n0,1,a\n\n1,0,b\n1,1\n", [], "arrays"),
    ("y,d,z\n\n0,1,a\n\n1,0,b\n1,1\n", ["--instrument", "z"], "row 4: missing instrument value"),
    ("y,d\n0,1\n1\n", [], "row 3: bad outcome/sector field (int() argument"),
    ("\ny,d\n0,1\n", [], "row 2: bad outcome/sector field ('y')"),
    # extra fields
    ("y,d\n0,1,extra,more\n1,0\n", [], "arrays"),
    # duplicate header names: the last one wins, and a short row leaves it empty
    ("y,d,y\n0,1,1\n1,0,0.5\n", [], "arrays"),
    ("y,d,y\n0,1,1\n1,0\n", [], "row 3: bad outcome/sector field (float() argument"),
    # --filter on an absent column, or on a field missing from a short row,
    # matches an empty value
    ("y,d,g\n0,1,A\n1,0,B\n", ["--filter", "q="], "arrays"),
    ("y,d,g\n0,1,A\n1,0,B\n", ["--filter", "q=x"], "no rows after filtering"),
    ("y,d,g\n0,1\n1,0,B\n1,1,A\n", ["--filter", "g="], "arrays"),
    ("y,d,g\n0,1,A\n1,0,B\n", ["--filter", "g"], "bad --filter 'g', expected COL=VALUE"),
    # weights, Python's own number syntax and a BOM-free UTF-8 header
    ("revenu_é,d,poids\n1_0, 1,0.5\n-2.5e-1,0,2\n", ["--outcome", "revenu_é", "--weight", "poids"], "arrays"),
    ("\ufeffy,d\n0,1\n", [], "row 2: bad outcome/sector field ('y')"),
    # errors in different columns: the first failing row wins
    ("y,d,w,z\n0,1,1,a\n0,1,x,a\n0,q,1,\n", ["--weight", "w", "--instrument", "z"], "row 3: bad weight"),
    ("y,d,w,z\n0,1,1,a\n0,q,x,a\n0,1,x,\n", ["--weight", "w", "--instrument", "z"], "row 3: bad outcome/sector"),
    ("y,d,w,z\n0,1,1,a\n0,1,1,\n0,x,1,a\n", ["--weight", "w", "--instrument", "z"], "row 3: missing instrument"),
    ("y,d,w\n0,1,1\n", ["--weight", "v"], "row 2: bad weight ('v')"),
    # a missing or empty instrument value, an absent instrument column
    ("y,d,z\n0,1,a\n1,0,\n", ["--instrument", "z"], "row 3: missing instrument value"),
    ("y,d,z\n0,1,a\n1,0\n", ["--instrument", "z"], "row 3: missing instrument value"),
    ("y,d\n0,1\n", ["--instrument", "z"], "row 2: missing instrument value"),
    # a header-only file, an empty file and sample-level errors
    ("y,d\n", [], "no rows after filtering"),
    ("", [], "missing header row"),
    ("y,d\n0,2\n", [], "sector must be 0 or 1"),
    ("y,d\n0,1\n0,99999999999999999999999\n", [], "sector must be 0 or 1"),
    ("y,d,w\n0,1,-1\n", ["--weight", "w"], "weights must be positive and finite"),
    # a field missing from a short row is empty, not the string 'None'
    ("y,d,g\n0,1\n1,0,B\n1,1,A\n", ["--filter", "g=None"], "no rows after filtering"),
    # files that are not plain, one per reason, go through csv.reader: a
    # quoted field, CRLF and lone CR line ends, trailing blank lines, ragged
    # rows, a line or a field over the field size limit, an empty first line
    # and a NUL byte
    ('y,d,z\n0,1,"a,b"\n1,0,"a,b"\n', ["--instrument", "z", "--filter", "z=a,b"], "arrays"),
    ("y,d,z\r\n0,1,a\r\n1,0,b\r\n", ["--instrument", "z"], "arrays"),
    ("y,d,z\r0,1,a\n1,0,b\n", ["--instrument", "z"], "arrays"),
    ("y,d,z\n0,1,a\n1,0,b\n\n\n", ["--instrument", "z"], "arrays"),
    ("y\n0\n\n1\n", ["--sector", "y"], "arrays"),
    ("y,d,z\n0,1,a,extra\n1,0\n1,1,b\n", [], "arrays"),
    pytest.param("y,d,z\n0,1,a\n" + "1,1,c" * 30_000 + "\n", [], "arrays", id="long-line"),
    pytest.param("y,d,z\n0,1,a\n1,1," + "c" * 140_000 + "\n", [], "field larger than field limit",
                 id="long-field"),
    ("\ny,d\n0,1\n1,0\n", ["--filter", "q="], "row 2: bad outcome/sector field ('y')"),
    # Python 3.10's csv.reader refuses a NUL byte; later ones keep it in the field
    ("y,d,g\n0,1,\x00\n1,0,a\n", [], "line contains NUL" if sys.version_info < (3, 11) else "arrays"),
    # a plain file's fields are keyed by their bytes: non-ASCII and
    # mixed-width instrument labels, one of more than 8 bytes beside 1-byte
    # ones, labels that differ only by a trailing space, and an outcome
    # column of fields both up to and over 8 bytes
    ("y,d,z\n0,1,é\n1,0,Z\n0,0,a\n1,1,z9\n0,1,z10\n1,0,é\n0,0,a\n", ["--instrument", "z"], "arrays"),
    ("y,d,z\n0,1,a\n1,0,b_is_longer\n0,0,c\n1,1,a\n0,1,b_is_longer\n", ["--instrument", "z"], "arrays"),
    ("y,d,z\n0,1,a\n1,0,a \n0,0,a\n1,1,a \n", ["--instrument", "z"], "arrays"),
    ("y,d\n1,1\n0.25,0\n-1.234567890123,1\n2.5e-300,0\n0.25,1\n-1.234567890123,0\n", [], "arrays"),
    # one long label among many short ones
    ("y,d,z\n" + "0,1,a\n1,0,b\n" * 30 + "1,1," + "c" * 500 + "\n0,0,é\n",
     ["--instrument", "z", "--filter", "z=" + "c" * 500], "arrays"),
    ("y,d,z\n" + "0,1,a\n1,0,b\n" * 30 + "1,1," + "c" * 500 + "\n0,0,é\n", ["--instrument", "z"], "arrays"),
    # a CRLF file goes through csv.reader, which codes the sector and the
    # labels in the order they first appear, out of code-point order here
    ("y,d,z\r\n0,1,é\r\n1,0,Z\r\n0,0,a\r\n1,1,z9\r\n0,1,z10\r\n1,0,é\r\n",
     ["--instrument", "z", "--filter", "d=1"], "arrays"),
    ("y,d,z\r\n0,1,b\r\n1,0,a\r\n0,0,b\r\n1,1,a\r\n", ["--instrument", "z"], "arrays"),
    # a bad outcome deep into a large plain file: the row the row-by-row parse meets
    pytest.param("y,d,z\n" + "0,1,a\n" * 149_999 + "x,1,a\n" + "1,0,b\n" * 50_000, ["--instrument", "z"],
                 "row 150001: bad outcome/sector field (could not convert string to float: 'x')", id="bad-row-150001"),
]


@pytest.mark.parametrize("text, options, expected", LOADER_CASES)
def test_loader_equals_dictreader_reference(tmp_path, text, options, expected):
    ref = assert_loaders_agree(tmp_path / "s.csv", text, *options)
    if expected == "arrays":
        assert not isinstance(ref, str), ref
    else:
        assert expected in ref


def test_loader_equals_dictreader_reference_on_random_edits(tmp_path):
    rng = np.random.default_rng(5)
    fields = ["", "0", "1", "2", "0.5", "nan", "a", "b", " 1", "1_0", "None", "\udce9"]
    names = ["y", "d", "z", "w", "g", ""]
    options = [[], ["--instrument", "z"], ["--weight", "w"], ["--filter", "g=A"],
               ["--filter", "q="], ["--filter", "g=None"], ["--weight", "w", "--instrument", "z"]]
    for case in range(300):
        header = ["y", "d", "z", "w", "g"]
        rows = [[str(i % 2), str(i // 2 % 2), "ab"[i % 2], str(1 + i % 3), "AB"[i // 3 % 2]]
                for i in range(8)]
        for _ in range(rng.integers(0, 5)):
            op, i = rng.integers(0, 6), rng.integers(0, len(rows))
            if op == 0 and rows[i]:
                rows[i][rng.integers(0, len(rows[i]))] = rng.choice(fields)
            elif op == 1:
                rows[i] = rows[i][: rng.integers(0, 5)]
            elif op == 2:
                rows[i] = rows[i] + [rng.choice(fields)]
            elif op == 3:
                rows[i] = []  # a blank line
            elif op == 4:
                header.insert(rng.integers(0, len(header) + 1), rng.choice(names))
            else:
                header[rng.integers(0, len(header))] = rng.choice(names)
        text = "\n".join(",".join(r) for r in [header, *rows]) + "\n"
        assert_loaders_agree(tmp_path / "s.csv", text, *options[case % len(options)])


# Bytes that make a file plain or not (quote, CR, NUL, comma, blank line),
# and fields that parse as outcome, sector, weight and instrument values.
CSV_ALPHABET = ["a", "1", "0", ",", '"', "\r", "\n", " ", "\x00"]
LOADER_OPTIONS = [
    [], ["--instrument", "z"], ["--weight", "w"], ["--filter", "g=a"], ["--filter", "g="],
    ["--instrument", "z", "--weight", "w", "--filter", "g=1", "--filter", "q="],
]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    header=st.sampled_from([["y", "d", "z", "w", "g"], ["y", "d", "z"], ["y", "d"]]),
    rows=st.lists(
        st.tuples(*[st.sampled_from(v) for v in ("01", "01", "a1", "1 ", ["a", "1", ""])]), max_size=6
    ),
    end=st.sampled_from(["", "\n"]),
    edits=st.lists(st.tuples(st.integers(0, 99), st.sampled_from(CSV_ALPHABET), st.booleans()), max_size=3),
    options=st.sampled_from(LOADER_OPTIONS),
)
def test_loader_equals_dictreader_reference_on_generated_text(
    tmp_path_factory, header, rows, end, edits, options
):
    # A valid sample with a few characters of the alphabet inserted or replaced.
    text = "\n".join(",".join(r[: len(header)]) for r in [header, *rows]) + end
    for pos, char, insert in edits:
        pos %= len(text) + 1
        text = text[:pos] + char + text[pos + (not insert) :]
    assert_loaders_agree(tmp_path_factory.mktemp("csv") / "s.csv", text, *options)


def test_plain_reader_codes_short_fields_in_code_point_order():
    fields = ["é", "Z", "a", "z9", "z10", "a ", "", "12345678", "a", "é"]
    raw = ("z,y\n" + "".join(f"{f},1\n" for f in fields)).encode()
    columns, n = cli._split_plain(raw, {"z"})
    values, codes = columns["z"]
    assert n == len(fields) and values == sorted(set(fields)) and [values[c] for c in codes] == fields


def test_plain_load_allocates_at_most_24_mb(tmp_path):
    # The benchmark's infer input: 200k rows of binary y and d and one of 8 labels.
    rng = np.random.default_rng(0)
    rows = rng.integers(0, [2, 2, 8], size=(200_000, 3)).tolist()
    path = tmp_path / "s.csv"
    path.write_text("y,d,z\n" + "".join(f"{y},{d},z{z:02d}\n" for y, d, z in rows))
    args = cli._make_parser().parse_args(["infer", "--data", str(path), "--instrument", "z"])
    tracemalloc.start()
    try:
        sample = cli._load_sample(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6, f"peak {peak / 1e6:.1f} MB"
    assert sample.n == 200_000


def test_plain_load_of_one_long_field_allocates_little(tmp_path):
    # Memory follows the file's size, not its rows times its longest field
    # (40 MB here).
    path = tmp_path / "s.csv"
    path.write_text("y,d,g\n" + "0,1,a\n" * 10_000 + "1,0," + "b" * 4000 + "\n")
    args = cli._make_parser().parse_args(["iqr", "--data", str(path), "--filter", "g=a"])
    tracemalloc.start()
    try:
        sample = cli._load_sample(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.n == 10_000 and peak <= 4e6, f"peak {peak / 1e6:.1f} MB"


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these attributes for --trace 1; a rename here
    # would make the traced run fail.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets(cli, inference, functional, generalized, probability)
    assert targets
    for owner, attr, name, _count in targets:
        assert callable(getattr(owner, attr, None)), name


class _ReaderCalled(Exception):
    pass


def test_plain_file_is_split_without_csv_reader(tmp_path, monkeypatch):
    # The benchmark's input shape: binary y and d and a K=8 instrument label.
    rng = np.random.default_rng(0)
    rows = [[str(a), str(b), f"z{c:02d}"] for a, b, c in rng.integers(0, [2, 2, 8], size=(2000, 3))]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("\n".join(",".join(r) for r in [["y", "d", "z"], *rows]) + "\n")
    with open(quoted, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([["y", "d", "z"], *rows])
    args = cli._make_parser().parse_args(["infer", "--data", str(plain), "--instrument", "z"])
    ref = _load_or_error(dictreader_load_sample, args)

    def refuse(*a, **k):
        raise _ReaderCalled

    monkeypatch.setattr(cli.csv, "reader", refuse)
    assert _load_or_error(cli._load_sample, args) == ref
    args.data = str(quoted)
    with pytest.raises(_ReaderCalled):
        cli._load_sample(args)


@pytest.mark.parametrize("last", ['1,0,"b"\n', "1,0,b\r\n"])
def test_quote_or_cr_past_the_first_buffer_reaches_csv_reader(tmp_path, last):
    # The reader looks at the first buffer before reading the whole file;
    # a quote or CR that only shows after it must still select csv.reader.
    path = tmp_path / "late.csv"
    path.write_text("y,d,z\n" + "0,1,a\n" * (1 << 17) + last)
    with open(path, "rb") as fh:
        assert last[-2] not in fh.peek().decode()
    args = cli._make_parser().parse_args(["infer", "--data", str(path), "--instrument", "z"])
    s = cli._load_sample(args)
    assert s.z[-1] == "b" and _load_or_error(cli._load_sample, args) == _load_or_error(
        dictreader_load_sample, args
    )


def test_roy_threads_must_be_a_positive_integer(tmp_path, capsys, monkeypatch):
    path = write_binary_csv(tmp_path / "s.csv")
    commands = (
        ["infer", "--data", str(path), "--instrument", "z", "--bootstrap", "100"],
        ["iqr", "--data", str(path), "--bootstrap", "100"],
    )
    # Commands that never draw a bootstrap reject it too.
    undrawn = (
        ["binary", "--cells", '{"q00": 0.2, "q01": 0.3, "q10": 0.1, "q11": 0.4}'],
        ["iqr", "--data", str(path)],
        ["infer", "--data", str(path), "--instrument", "z"],
    )
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("ROY_THREADS", bad)
        for argv in commands + undrawn:
            assert "ROY_THREADS" in assert_input_error(argv, capsys)
    runs = []
    for threads in (None, "1", "2"):
        if threads is None:
            monkeypatch.delenv("ROY_THREADS")
        else:
            monkeypatch.setenv("ROY_THREADS", threads)
        runs.append([run_cli(argv, capsys) for argv in commands])
    assert runs[0][0][0] == runs[0][1][0] == 0
    assert runs[0] == runs[1] == runs[2]


def test_functional_report(tmp_path, capsys):
    rng = oracle.make_rng(6)
    path = tmp_path / "c.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "d"])
        for _ in range(200):
            w.writerow([round(float(rng.normal()), 3), int(rng.random() < 0.6)])
    code, out, _ = run_cli(["functional", "--data", str(path)], capsys)
    assert code == 0
    rep = json.loads(out)
    env = rep["bounds"]["envelopes"]
    assert len(env) > 0
    for e in env:
        assert e["f1"]["lo"] <= e["f1"]["hi"]


def test_iqr_command_with_bootstrap(tmp_path, capsys):
    rng = oracle.make_rng(7)
    path = tmp_path / "c.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "d"])
        for _ in range(300):
            w.writerow([round(float(rng.normal(1.0, 1.0)), 3), int(rng.random() < 0.9)])
    code, out, _ = run_cli(
        ["iqr", "--data", str(path), "--d", "1", "--quantiles", "0.7,0.9",
         "--bootstrap", "150"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["bounds"]["q1"] == 0.7
    assert "iqr" in rep["confidence"]


def test_iqr_bad_quantiles(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv")
    code, _, err = run_cli(
        ["iqr", "--data", str(path), "--quantiles", "oops"], capsys
    )
    assert code == 1


def test_iqr_rejects_a_first_quantile_at_or_below_1e_12(tmp_path, capsys):
    # A level at or below 1e-12 is read as 0: the bounds would be [+inf, +inf],
    # or a numpy warning would reach stderr.
    path = tmp_path / "four.csv"
    path.write_text("y,d\n1,1\n0,0\n1,0\n0,1\n")
    for q in ("1e-13,0.5", "1e-12,0.5"):
        for extra in ([], ["--bootstrap", "200"]):
            err = assert_input_error(["iqr", "--data", str(path), "--quantiles", q, *extra], capsys)
            assert "1e-12 < q1 < q2 < 1" in err
    code, out, err = run_cli(["iqr", "--data", str(path), "--quantiles", "2e-12,0.5"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["bounds"]["iqr"] == {"hi": "+inf", "label": "IQR_1(2e-12,0.5)", "lo": 0.0, "sharp": True}


def test_binary_prints_no_negative_zero(capsys):
    code, out, _ = run_cli(["binary", "--cells", '{"q00":0.5,"q01":0.2,"q10":0,"q11":0.3}'], capsys)
    assert code == 0
    assert json.loads(out)["bounds"]["ate"]["lo"] == 0.0 and "-0.0" not in out


def test_infer_command(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv", seed=8, n=1000)
    code, out, _ = run_cli(
        ["infer", "--data", str(path), "--instrument", "z", "--bootstrap", "200"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    for key in ("ey0", "ey1", "ate", "att1_bootstrap", "att0_bootstrap"):
        assert key in rep["bounds"]


def test_infer_reports_bounds_without_att_when_a_z_lacks_a_sector(tmp_path, capsys):
    # "solo" has rows in sector 1 only, so no sector-conditional gain is
    # defined; the other intervals are still reported.  A single row there
    # is far enough from the other z's P(Y=1|z) to empty the EY1 interval.
    for solo_rows, expect in (("1,1\n0,1\n" * 5, 0), ("1,1\n", 2)):
        path = write_binary_csv(tmp_path / "s.csv", seed=8, n=1000)
        with open(path, "a", newline="") as fh:
            fh.write(solo_rows.replace("\n", ",solo\n"))
        code, out, err = run_cli(
            ["infer", "--data", str(path), "--instrument", "z", "--bootstrap", "200"],
            capsys,
        )
        assert (code, err) == (expect, "")
        rep = json.loads(out)
        assert rep["findings"]["model_rejected"] is bool(expect)
        for key in ("ey0", "ey1", "ate", "benefit_strict", "mobility"):
            assert key in rep["bounds"]
        for key in ("att1", "att0", "att1_bootstrap", "att0_bootstrap"):
            assert key not in rep["bounds"]


def test_simulate_roundtrip(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text(
        json.dumps(
            {
                "joint": {
                    "type": "discrete",
                    "support": [[0, 0], [0, 1], [1, 0], [1, 1]],
                    "probs": [0.3, 0.2, 0.2, 0.3],
                },
                "z_labels": ["a", "b"],
            }
        )
    )
    out_csv = tmp_path / "sample.csv"
    code, out, _ = run_cli(
        ["simulate", "--design", str(design), "--n", "500", "--seed", "4",
         "--out", str(out_csv)],
        capsys,
    )
    assert code == 0
    assert out_csv.exists() and (tmp_path / "sample.csv.truth.json").exists()
    # the written sample feeds straight back into the estimation commands
    code, out, _ = run_cli(
        ["generalized", "--data", str(out_csv), "--instrument", "z"], capsys
    )
    assert code in (0, 2)
    json.loads(out)


def test_simulate_deterministic(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"joint": {"type": "gaussian", "mu1": 0.5}}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code, _, _ = run_cli(
            ["simulate", "--design", str(design), "--n", "200", "--seed", "9",
             "--out", str(target)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_writes_a_plain_file(tmp_path, capsys):
    # "\n" line ends: the loader splits the file from its bytes, and a CRLF
    # copy, which goes through csv.reader, loads to the same sample.
    design = tmp_path / "design.json"
    joint = {"type": "discrete", "support": [[0, 0], [0, 1], [1, 0], [1, 1]], "probs": [0.3, 0.2, 0.2, 0.3]}
    design.write_text(json.dumps({"joint": joint, "z_labels": ["a", "b", "c"]}))
    path, crlf = tmp_path / "s.csv", tmp_path / "crlf.csv"
    argv = ["simulate", "--design", str(design), "--n", "300", "--seed", "2", "--out", str(path)]
    assert run_cli(argv, capsys)[0] == 0
    raw = path.read_bytes()
    assert b"\r" not in raw and cli._split_plain(raw, {"y", "d", "z"}) is not None
    crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
    loads = []
    for p in (path, crlf):
        args = cli._make_parser().parse_args(["infer", "--data", str(p), "--instrument", "z"])
        loads.append(_load_or_error(cli._load_sample, args))
    assert loads[0] == loads[1] and loads[0][3][2] == ("a", "b", "c")


def test_simulate_leaves_no_sample_when_the_truth_file_fails(tmp_path, capsys):
    # The sample is written first; a truth record that cannot be written
    # fails the run, and the sample goes with it.
    design, out = tmp_path / "design.json", tmp_path / "s.csv"
    design.write_text(json.dumps({"type": "gaussian"}))
    (tmp_path / "s.csv.truth.json").mkdir()
    err = assert_input_error(["simulate", "--design", str(design), "--n", "10", "--out", str(out)], capsys)
    assert "s.csv.truth.json" in err
    assert not out.exists()


GAUSSIAN = {"type": "gaussian"}
PAIRS = [[0, 1], [1, 0]]
# Design files, as JSON values or raw bytes, and the options that go with them.
BAD_DESIGNS = {
    "discrete-without-support": ({"joint": {"type": "discrete"}}, []),
    "json-list": ([1, 2], []),
    "z-weights-length": ({**GAUSSIAN, "z_labels": ["a", "b"], "z_weights": [1]}, []),
    "rho-above-1": ({**GAUSSIAN, "rho": 2}, []),
    "negative-n": (GAUSSIAN, ["--n", "-5"]),
    "zero-n": (GAUSSIAN, ["--n", "0"]),
    "joint-not-an-object": ({"joint": 5}, []),
    "support-not-pairs": ({"type": "discrete", "support": [[0, 1], [1]], "probs": [0.5, 0.5]}, []),
    "negative-prob": ({"type": "discrete", "support": PAIRS, "probs": [-1, 2]}, []),
    "zero-probs": ({"type": "discrete", "support": PAIRS, "probs": [0, 0]}, []),
    "negative-sd": ({**GAUSSIAN, "sd0": -1}, []),
    "nan-mean": ({**GAUSSIAN, "mu1": float("nan")}, []),
    "overflowing-draw": ({**GAUSSIAN, "mu0": 1e308, "sd0": 1e308}, []),
    "pi-not-a-number": ({**GAUSSIAN, "pi": "x"}, []),
    "z-labels-string": ({**GAUSSIAN, "z_labels": "ab"}, []),
    # Instrument labels that would merge or vanish once written to the CSV.
    "z-labels-repeat": ({**GAUSSIAN, "z_labels": ["a", "a"]}, []),
    "z-labels-same-text": ({**GAUSSIAN, "z_labels": [1, "1"]}, []),
    "z-label-empty": ({**GAUSSIAN, "z_labels": ["", "b"]}, []),
    "z-weight-bool": ({**GAUSSIAN, "z_labels": ["a"], "z_weights": [True]}, []),
    "not-utf8": (b'{"type": "gaussian", "mu0": \xe9}', []),
    "unknown-joint-type": ({"type": "weird"}, []),
}


# A numpy warning would be a second line on stderr.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("design, options", BAD_DESIGNS.values(), ids=BAD_DESIGNS)
def test_simulate_rejects_bad_design_with_one_error_line(tmp_path, capsys, design, options):
    path, out = tmp_path / "design.json", tmp_path / "sample.csv"
    path.write_bytes(design if isinstance(design, bytes) else json.dumps(design).encode())
    assert_input_error(["simulate", "--design", str(path), "--out", str(out), *options], capsys)
    assert not out.exists()


def test_draw_too_large_for_memory_gives_one_error_line(tmp_path, capsys):
    # Each size fails at its first allocation (728 TiB of float64), so
    # nothing is drawn before the error.
    huge = "100000000000000"
    data = write_binary_csv(tmp_path / "s.csv")
    design, out = tmp_path / "design.json", tmp_path / "sample.csv"
    design.write_text(json.dumps(GAUSSIAN))
    for argv in (
        ["infer", "--data", str(data), "--instrument", "z", "--bootstrap", huge],
        ["iqr", "--data", str(data), "--d", "1", "--bootstrap", huge],
        ["simulate", "--design", str(design), "--n", huge, "--out", str(out)],
    ):
        assert "allocate" in assert_input_error(argv, capsys)
    assert not out.exists()


def test_oracle_needs_cells_or_objective(capsys):
    assert "--cells or --objective" in assert_input_error(["oracle"], capsys)


def test_oracle_halfspaces(capsys):
    cells = json.dumps({"q00": 0.2, "q01": 0.1, "q10": 0.3, "q11": 0.4})
    code, out, _ = run_cli(["oracle", "--cells", cells, "--variant", "roy"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["bounds"]["feasible"] is True
    assert len(rep["bounds"]["halfspaces"]) > 0


def test_oracle_lp_objective(capsys):
    cells = json.dumps(
        {
            "z1": {"q00": 0.1, "q01": 0.3, "q10": 0.2, "q11": 0.4},
            "z2": {"q00": 0.3, "q01": 0.1, "q10": 0.1, "q11": 0.5},
        }
    )
    code, out, _ = run_cli(["oracle", "--cells", cells, "--objective", "ey0"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["bounds"]["ey0"]["lo"] <= rep["bounds"]["ey0"]["hi"]


def test_oracle_lp_objective_as_csv(capsys):
    cells = '{"q00":0.2,"q01":0.1,"q10":0.3,"q11":0.4}'
    code, out, _ = run_cli(["oracle", "--cells", cells, "--objective", "p01", "--format", "csv"], capsys)
    assert code == 0
    code, js, _ = run_cli(["oracle", "--cells", cells, "--objective", "p01"], capsys)
    assert code == 0
    b = json.loads(js)["bounds"]["p01"]
    assert out == f"name,lo,hi\np01,{b['lo']!r},{b['hi']!r}\n"
    assert (b["lo"], b["hi"]) == pytest.approx((0.0, 0.6), abs=1e-9)


def test_oracle_lp_caps_the_instrument_support(capsys):
    q = {"q00": 0.2, "q01": 0.1, "q10": 0.3, "q11": 0.4}
    cells = json.dumps({f"z{j}": q for j in range(7)})
    err = assert_input_error(["oracle", "--objective", "ey0", "--cells", cells], capsys)
    assert err == "error: instrument support 7 exceeds the cap of 6\n"


def test_oracle_lp_on_a_sample_equals_the_closed_form(tmp_path, capsys):
    # The response-type LP and generalized's closed form, on one tabulated sample.
    path = str(write_binary_csv(tmp_path / "s.csv", seed=3))
    sample = ["--data", path, "--instrument", "z"]
    code, out, _ = run_cli(["oracle", *sample, "--objective", "ey0"], capsys)
    assert code == 0
    lp = json.loads(out)["bounds"]["ey0"]
    code, out, _ = run_cli(["generalized", *sample], capsys)
    assert code == 0
    closed = json.loads(out)["bounds"]["ey0"]
    assert lp["lo"] == pytest.approx(closed["lo"], abs=1e-9)
    assert lp["hi"] == pytest.approx(closed["hi"], abs=1e-9)


def test_csv_format_and_out_file(tmp_path, capsys):
    cells = json.dumps({"q00": 0.2, "q01": 0.1, "q10": 0.3, "q11": 0.4})
    out_path = tmp_path / "rep.csv"
    code, out, _ = run_cli(
        ["binary", "--cells", cells, "--format", "csv", "--out", str(out_path)], capsys
    )
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "name,lo,hi"
    assert any(line.startswith("p10,") for line in text.splitlines())


# Command lines whose report or sample cannot be written: --out joins them.
# The rejected table reaches the exit-2 path before it writes its report.
UNWRITABLE_OUT = {
    "binary-cells": lambda tmp_path: ["binary", "--cells", CELLS],
    "generalized-rejected": lambda tmp_path: ["generalized", "--cells", json.dumps(REJECTED_CELLS)],
    "infer-data": lambda tmp_path: [
        "infer", "--data", str(write_binary_csv(tmp_path / "s.csv")), "--instrument", "z", "--bootstrap", "100",
    ],
    "simulate": lambda tmp_path: ["simulate", "--design", str(write_design(tmp_path, GAUSSIAN))],
}


@pytest.mark.parametrize("target", ["missing/out.json", "a-directory"])
@pytest.mark.parametrize("command", UNWRITABLE_OUT.values(), ids=UNWRITABLE_OUT)
def test_unwritable_out_gives_one_error_line(tmp_path, capsys, command, target):
    (tmp_path / "a-directory").mkdir()
    out = tmp_path / target
    err = assert_input_error([*command(tmp_path), "--out", str(out)], capsys)
    assert str(out) in err
    # No sample and no truth file were written.
    assert {p.name for p in tmp_path.iterdir()} <= {"a-directory", "design.json", "s.csv"}


# Nested far past the interpreter's recursion limit.
DEEP_JSON = "[" * 50000 + "]" * 50000


@pytest.mark.parametrize(
    "command, message",
    [
        (["binary", "--cells", DEEP_JSON], "bad --cells payload"),
        (["generalized", "--cells", DEEP_JSON], "bad --cells payload"),
        (["oracle", "--objective", "ey0", "--cells", DEEP_JSON], "bad --cells payload"),
        (["simulate", "--design", "deep.json", "--out", "sample.csv"], "bad design file"),
    ],
    ids=["binary", "generalized", "oracle", "simulate"],
)
def test_deeply_nested_json_gives_one_error_line(tmp_path, capsys, monkeypatch, command, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    err = assert_input_error(command, capsys)
    assert err.startswith(f"error: {message}: maximum recursion depth exceeded")
    assert not (tmp_path / "sample.csv").exists()


@pytest.mark.parametrize("argv", [["generalized", "--instrument", "z"], ["iqr", "--d", "1"]])
def test_csv_format_keeps_confidence_intervals(tmp_path, capsys, argv):
    path = write_binary_csv(tmp_path / "s.csv", seed=3)
    argv = [*argv, "--data", str(path), "--bootstrap", "200"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    confidence = json.loads(out)["confidence"]
    code, text, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    rows = text.splitlines()
    ci_rows = [
        f"confidence.{name},{ci['lo']},{ci['hi']}"
        for name, ci in sorted(confidence.items())
        if isinstance(ci, dict)
    ]
    # The interval rows follow every bounds row.
    assert len(ci_rows) > 0 and rows[-len(ci_rows):] == ci_rows
    assert not any(r.startswith("confidence.") for r in rows[: -len(ci_rows)])


def test_report_byte_identical_across_runs(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv", seed=10)
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            ["infer", "--data", str(path), "--instrument", "z",
             "--bootstrap", "200", "--seed", "3"],
            capsys,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_entry_point_subprocess(tmp_path, cli_env):
    cells = json.dumps({"q00": 0.25, "q01": 0.25, "q10": 0.25, "q11": 0.25})
    res = subprocess.run(
        [sys.executable, "-m", "roybounds.cli", "binary", "--cells", cells],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert res.returncode == 0, res.stderr
    json.loads(res.stdout)


def test_report_conforms_to_schema(capsys):
    import importlib.resources

    import jsonschema

    schema = json.loads(
        importlib.resources.files("roybounds").joinpath("report_schema.json").read_text()
    )
    cells = json.dumps({"q00": 0.2, "q01": 0.1, "q10": 0.3, "q11": 0.4})
    code, out, _ = run_cli(["binary", "--cells", cells], capsys)
    assert code == 0
    jsonschema.validate(json.loads(out), schema)
