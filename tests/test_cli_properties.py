"""Property test: mutated command lines and CSV rows never crash the CLI.

Each example starts from a valid command and CSV sample, applies a few
random edits to the argument list and to the rows, and runs the command
in-process.  Whatever the edits, the exit code is 0, 1 or 2, exit 1
writes exactly one `error:` line, and no exception escapes `cli.run`.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roybounds import cli

HEADER = ["y", "d", "z", "w"]
ROWS = [
    [str(i % 2), str((i // 2) % 2), "abc"[i % 3], str(1 + i % 4)]
    for i in range(24)
]
COMMANDS = {
    "binary": ["binary", "--instrument", "z", "--tau-y", "0.5"],
    "generalized": ["generalized", "--instrument", "z", "--bootstrap", "100"],
    "infer": ["infer", "--instrument", "z", "--bootstrap", "100"],
    "iqr": ["iqr", "--d", "1", "--quantiles", "0.25,0.75", "--bootstrap", "100"],
}
# Field values: valid ones, out-of-range numbers, non-finite and extreme
# floats, text, and bytes the CSV reader may refuse ("\udce9" is written
# as the lone byte 0xe9, which is not UTF-8).
FIELDS = [
    "", "0", "1", "2", "-1", "0.7", "nan", "inf", "-inf", "1e308", "1e-300",
    "abc", "a", "b", " 1", "\x00", "1,0", '"', "\udce9",
]
# An edit draws its option from those the command declares (see
# `command_options`) and from these: abbreviations and options of other
# commands, which the parser must reject.
FOREIGN = ["--inst", "--boot", "--design", "--variant"]
# Plausible and bad values for the options.  Bootstrap counts stay small so
# that no example runs long.
VALUES = [
    "y", "d", "z", "w", "0", "1", "-1", "100", "150", "0.5", "1.5", "nan",
    "json", "csv", "z=a", "z=", "0.9,0.1", "0.25,0.75", "0.5,0.5",
    '{"q00":0.2,"q01":0.1,"q10":0.3,"q11":0.4}', '{"a":{"q00":1}}', "{", "--", "-", "",
]

# An edit adds an option with a value, replaces one argument after the
# command name by a value, or deletes one.  The option is drawn as an index
# into the command's own list.
argv_edits = st.lists(
    st.tuples(
        st.sampled_from(["add", "replace", "delete"]),
        st.integers(0, 20),
        st.integers(0, 99),
        st.sampled_from(VALUES),
    ),
    max_size=3,
)
row_edits = st.lists(
    st.tuples(
        st.sampled_from(["set", "drop_field", "add_field", "drop_row", "header"]),
        st.integers(0, len(ROWS) - 1),
        st.integers(0, len(HEADER) - 1),
        st.sampled_from(FIELDS),
    ),
    max_size=6,
)


def command_options(declared):
    """The options an edit of a command may add: its own, but not --out, which
    writes the report into the working directory, and the foreign ones."""
    return sorted(declared - {"--out"}) + FOREIGN


def mutate_argv(argv, edits, options):
    argv = list(argv)
    for op, i, k, value in edits:
        if op == "add":
            argv += [options[k % len(options)], value]
        elif op == "replace" and len(argv) > 1:
            argv[1 + i % (len(argv) - 1)] = value
        elif len(argv) > 1:
            del argv[1 + i % (len(argv) - 1)]
    return argv


def mutate_csv(edits):
    header, rows = list(HEADER), [list(r) for r in ROWS]
    for op, i, col, field in edits:
        if op == "header":
            header[col] = field
        elif not rows:
            continue
        elif op == "set" and rows[i % len(rows)]:
            row = rows[i % len(rows)]
            row[col % len(row)] = field
        elif op == "drop_field":
            rows[i % len(rows)] = rows[i % len(rows)][:-1]
        elif op == "add_field":
            rows[i % len(rows)].append(field)
        else:
            del rows[i % len(rows)]
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv_edits=argv_edits, row_edits=row_edits)
def test_mutated_input_fails_cleanly(command, argv_edits, row_edits, tmp_path_factory, declared_options):
    path = tmp_path_factory.mktemp("mutated") / "sample.csv"
    path.write_bytes(mutate_csv(row_edits).encode("utf-8", "surrogateescape"))
    name, *rest = COMMANDS[command]
    options = command_options(declared_options[command])
    argv = mutate_argv([name, "--data", str(path), "--weight", "w", *rest], argv_edits, options)
    code, err = run_in_process(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)
