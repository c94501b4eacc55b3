import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import cli, inference, oracle
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
]
MULTI_Z_BAD_CELLS = ['{"a":{"q00":1}}', '{"a":5}']


def test_bad_cells_payload(capsys):
    cases = [["binary", "--cells", c] for c in SINGLE_Z_BAD_CELLS]
    for c in SINGLE_Z_BAD_CELLS + MULTI_Z_BAD_CELLS:
        cases += [["generalized", "--cells", c], ["oracle", "--objective", "ey0", "--cells", c]]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 1, argv
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)


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


def test_negative_seed_rejected(tmp_path, capsys):
    path = write_binary_csv(tmp_path / "s.csv")
    assert_input_error(["infer", "--data", str(path), "--instrument", "z", "--seed", "-1"], capsys)


def test_unreadable_csv_rejected(tmp_path, capsys):
    for name, data in (("nul.csv", b"y,d\n0,\x001\n"), ("latin1.csv", b"y,d\n\xe9,1\n")):
        path = tmp_path / name
        path.write_bytes(data)
        assert_input_error(["binary", "--data", str(path)], capsys)


def test_import_leaves_scipy_unloaded(cli_env):
    # Only the oracle module needs scipy; the library and the CLI load it on demand.
    code = (
        "import sys; import roybounds; a = 'scipy' in sys.modules; "
        "import roybounds.cli; b = 'scipy' in sys.modules; "
        "from roybounds import *; print(a, b, 'scipy' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False", "False", "False"]


def test_oracle_commands_without_scipy(tmp_path, cli_env):
    # scipy is the [oracle] extra: without it the commands that need it give
    # one error line that names the extra, and the others still run.
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"type": "gaussian", "rho": 0.3}))
    cells = '{"q00":0.2,"q01":0.1,"q10":0.3,"q11":0.4}'
    code = "import sys; sys.modules['scipy'] = None; from roybounds.cli import run; sys.exit(run(sys.argv[1:]))"
    for argv, want in (
        (["oracle", "--cells", cells], 1),
        (["simulate", "--design", str(design), "--out", str(tmp_path / "s.csv")], 1),
        (["binary", "--cells", cells], 0),
    ):
        res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=cli_env)
        assert res.returncode == want, res.stderr
        if want:
            assert res.stdout == ""
            assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
            assert "roybounds[oracle]" in res.stderr


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1


# Options of every subcommand that reads a sample.
SAMPLE_OPTIONS = {
    "--data", "--outcome", "--sector", "--weight", "--filter", "--out", "--seed", "--format",
}
DECLARED = {
    "binary": SAMPLE_OPTIONS | {"--instrument", "--cells", "--tau-y"},
    "generalized": SAMPLE_OPTIONS | {"--instrument", "--cells", "--level", "--bootstrap"},
    "functional": SAMPLE_OPTIONS,
    "iqr": SAMPLE_OPTIONS | {"--d", "--quantiles", "--level", "--bootstrap"},
    "infer": SAMPLE_OPTIONS | {"--instrument", "--level", "--bootstrap"},
    "simulate": {"--design", "--n", "--out", "--seed"},
    "oracle": SAMPLE_OPTIONS | {"--instrument", "--cells", "--variant", "--objective"},
}


def test_each_subcommand_declares_only_the_options_it_reads(declared_options):
    assert declared_options == DECLARED
    assert sum(map(len, DECLARED.values())) == 70


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
    ]
    + [
        # abbreviations bind to no option
        ("functional", ["--d", "1"], "unrecognized arguments: --d 1"),
        ("generalized", ["--inst", "z", "--boot", "100"], "unrecognized arguments: --inst z --boot 100"),
        ("iqr", ["--boot", "200"], "unrecognized arguments: --boot 200"),
        # infer draws 999 by default, and an explicit 0 is too few
        ("infer", ["--bootstrap", "0"], "at least 100"),
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(valid_commands, capsys, cmd, extra, message):
    assert message in assert_input_error(valid_commands[cmd] + extra, capsys)


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
    z = None if s.z is None else (s.z.dtype, s.z.tolist())
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
    "z-weight-bool": ({**GAUSSIAN, "z_labels": ["a"], "z_weights": [True]}, []),
    "not-utf8": (b'{"type": "gaussian", "mu0": \xe9}', []),
}


# A numpy warning would be a second line on stderr.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("design, options", BAD_DESIGNS.values(), ids=BAD_DESIGNS)
def test_simulate_rejects_bad_design_with_one_error_line(tmp_path, capsys, design, options):
    path, out = tmp_path / "design.json", tmp_path / "sample.csv"
    path.write_bytes(design if isinstance(design, bytes) else json.dumps(design).encode())
    assert_input_error(["simulate", "--design", str(path), "--out", str(out), *options], capsys)
    assert not out.exists()


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
