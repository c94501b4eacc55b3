"""Batch command-line interface.

Subcommands wrap the library one-to-one and emit a deterministic JSON
report.  Exit codes: 0 success, 1 malformed input, 2 substantive
model-rejection finding (crossed bounds or an infeasible identified
set), so scripts can tell rejection from malfunction.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import binary, generalized, functional, inference
from .errors import Infeasible, InputError, OutcomeInstrumentDependence, RoyBoundsError
from .functional import OutcomeSample, build_subcdf
from .probability import CellProbs, InstrumentTable, validate_cells

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECTED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _checked(convert, ok, need: str):
    """An argparse type: the number convert reads from the text, if ok holds for it."""

    def check(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")

    return check


_LEVEL = _checked(float, lambda x: 0.0 < x < 1.0, "0 < level < 1")
_COUNT = _checked(int, lambda n: n >= 0, "a nonnegative integer")  # --bootstrap (0 for none), --seed
_POSITIVE = _checked(int, lambda n: n > 0, "a positive integer")
_TOLERANCE = _checked(float, lambda x: 0.0 <= x < np.inf, "a finite tolerance >= 0")


# Every option once, by flag: the keywords of its add_argument call.
_OPTIONS = {
    "--data": dict(metavar="FILE", help="CSV sample with a header row"),
    "--cells": dict(help="JSON cell probabilities, or an object of them per instrument value"),
    "--outcome": dict(default="y", help="outcome column"),
    "--sector": dict(default="d", help="sector column, 0 or 1"),
    "--instrument": dict(help="instrument column"),
    "--weight": dict(help="weight column"),
    "--filter": dict(action="append", default=[], metavar="COL=VALUE", help="keep rows where COL is VALUE"),
    "--out": dict(help="file for the report, in place of stdout"),
    "--seed": dict(type=_COUNT, default=0, help="seed of every random draw"),
    "--level": dict(type=_LEVEL, default=0.95, help="confidence level"),
    "--bootstrap": dict(type=_COUNT, default=0, help="bootstrap draws, 0 for none"),
    "--quantiles": dict(default="0.25,0.75", metavar="Q1,Q2"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--tau-y": dict(type=_TOLERANCE, default=0.0, help="allowed outcome-instrument dependence"),
    "--d": dict(type=int, default=1, choices=(0, 1), help="sector of the bounded IQR"),
    "--design": dict(required=True, help="JSON design file"),
    "--n": dict(type=_POSITIVE, default=1000, help="rows to draw"),
    "--variant": dict(choices=("roy", "generalized")),  # oracle.ROY (the default), oracle.GENERALIZED
    "--objective": dict(choices=("ey0", "ey1", "p00", "p01", "p10", "p11")),  # the keys of oracle.OBJECTIVES
}
# The options of every command that reads a sample, of every one whose bounds are
# intervals (--format csv writes them as rows), and of every bootstrap.
_SAMPLE = ("--data", "--outcome", "--sector", "--weight", "--filter", "--out", "--seed")
_INTERVALS = (*_SAMPLE, "--format")
_DRAWS = ("--level", "--bootstrap")
_OVERRIDES = {("infer", "--bootstrap"): dict(default=999, help="bootstrap draws, at least 100"),
              ("simulate", "--out"): dict(required=True, help="file for the CSV sample")}
# Option pairs a subcommand takes, but not together: given the first, it would ignore the second.
# --cells is the whole input, so it leaves every option that reads a sample unread.
_CELLS_ONLY = tuple(
    ("--cells", flag) for flag in ("--data", "--outcome", "--sector", "--instrument", "--weight", "--filter")
)
_EXCLUSIVE = {
    "binary": _CELLS_ONLY,
    "generalized": (*_CELLS_ONLY, ("--cells", "--bootstrap")),
    "oracle": (*_CELLS_ONLY, ("--objective", "--variant")),
}
# Option pairs where the first is read only with the second set: given alone, it would be ignored.
_REQUIRES = {
    "binary": (("--tau-y", "--instrument"),),
    "generalized": (("--level", "--bootstrap"),),
    "iqr": (("--level", "--bootstrap"),),
    # only the objective's bounds are an interval; the halfspace report is not
    "oracle": (("--format", "--objective"),),
}


def _make_parser() -> _Parser:
    parser = _Parser(prog="roybounds", description=__doc__, allow_abbrev=False)
    parser.set_defaults(instrument=None, format="json")  # for the commands without them
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **{**_OPTIONS[flag], **_OVERRIDES.get((cmd, flag), {})})
    return parser


# Bytes that csv.reader treats otherwise than as field text; any one makes a file not plain.
_CSV_ONLY = (b'"', b"\r", b"\0")


def _plain_column(padded: bytes, start: np.ndarray, stop: np.ndarray) -> tuple[list, np.ndarray]:
    """The fields padded[start:stop], none over 8 bytes, as their distinct strings and one code each.

    A field is keyed by the 8 bytes from its start read as a big-endian
    unsigned integer, with all but its own bytes masked to zero.  No
    field holds a NUL byte, so distinct fields get distinct keys, and
    keys sort as the bytes do, which for UTF-8 text is code-point order;
    the distinct strings come out in that order.  padded runs on 8 bytes
    past the last stop.
    """
    words = np.ndarray((len(padded) - 7,), dtype=">u8", buffer=padded, strides=(1,))
    masks = np.array([(1 << 64) - (1 << 64 - 8 * k) for k in range(9)], dtype=np.uint64)
    keys = words[start].astype(np.uint64) & masks[stop - start]
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    codes = np.empty(len(keys), dtype=np.min_scalar_type(len(distinct)))
    codes[order] = np.cumsum(first) - 1
    # As S8, each key is its field's bytes, the zero padding dropped.
    distinct = distinct.astype(">u8").view("S8")
    return b"\n".join(distinct.tolist()).decode("utf-8").split("\n"), codes


def _split_plain(raw: bytes, names: set):
    """(columns, rows) of a file that needs no CSV parser, as _read_columns; None for any other.

    A file is plain when it holds no quote, CR or NUL byte, no blank line
    (the first one included), no line longer than csv.field_size_limit(),
    and as many commas on every line as on the header.  csv.reader splits
    such a file at every comma and newline, so the positions of those
    bytes give every field.  Commas and newlines are single bytes that no
    other UTF-8 character contains, so a column of fields up to 8 bytes
    is read straight from the bytes (`_plain_column`), with no Python
    object per row.
    """
    if not raw or any(b in raw for b in _CSV_ONLY):
        return None
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if raw[-1:] != b"\n":
        raw += b"\n"
    buf = np.frombuffer(raw, dtype=np.uint8)
    sep = buf == ord("\n")
    lines = np.count_nonzero(sep)
    sep |= buf == ord(",")
    # Positions below 2**31 fit int32, at half the memory of intp.
    sep = np.flatnonzero(sep).astype(np.int32 if len(raw) < 2**31 else np.intp)
    # nc separators per line, the last of each nc a newline: then every
    # line holds nc - 1 commas, as the header does.
    nc = raw.count(b",", 0, raw.index(b"\n")) + 1
    if len(sep) != lines * nc:
        return None
    sep = sep.reshape(lines, nc)
    ends = sep[:, -1]
    if (buf[ends] != ord("\n")).any():
        return None
    lengths = np.diff(ends, prepend=ends.dtype.type(-1)) - 1
    if lengths.min() == 0 or lengths.max() > csv.field_size_limit():
        return None
    header = raw[: ends[0]].decode("utf-8").split(",")
    index = {name: j for j, name in enumerate(header) if name in names}
    padded, fields, columns = raw + bytes(8), None, {}
    for name, j in index.items():
        # A field runs from one past the separator before it to the one after it.
        start, stop = (sep[1:, j - 1] if j else ends[:-1]) + 1, sep[1:, j]
        if lines > 1 and (stop - start).max() <= 8:
            columns[name] = _plain_column(padded, start, stop)
            continue
        # Longer fields, such as a continuous outcome's digits, are listed
        # row by row from one split of the whole text: coding them as
        # padded byte strings, or with a dict, measured slower than
        # converting them row by row when nearly all are distinct.
        if fields is None:
            fields = raw[:-1].decode("utf-8").replace("\n", ",").split(",")
        columns[name] = fields[nc + j :: nc], np.arange(lines - 1)
    return columns, lines - 1


def _read_columns(path: str, names: set) -> tuple[dict[str, tuple[list, np.ndarray]], int]:
    """The named columns of a CSV file and its number of nonblank data rows.

    Each column is (a list of fields, and per row the index of its field
    in that list).  A plain file is split directly (`_split_plain`), and
    a column of fields up to 8 bytes lists each distinct field once, in
    code-point order; any other column lists its fields row by row.  Any
    other file goes through csv.reader, and only the named columns are
    kept.  Fields are split as csv.reader splits them.  Only the names in
    the header get a column; a repeated name maps to its last occurrence,
    as in csv.DictReader, and a row too short to reach a column has the
    field None there.
    """
    try:
        with open(path, "rb") as fh:
            # A quoted or CRLF file mostly shows it in its first buffer: then
            # the whole file is not read twice.
            head = fh.peek()
            plain = None if any(b in head for b in _CSV_ONLY) else _split_plain(fh.read(), names)
        if plain is not None:
            return plain
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: missing header row")
            rows = [r for r in reader if r]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(str(exc)) from exc

    def column(j):
        try:
            return [r[j] for r in rows], np.arange(len(rows))
        except IndexError:
            return [r[j] if j < len(r) else None for r in rows], np.arange(len(rows))

    index = {name: j for j, name in enumerate(header) if name in names}
    return {name: column(j) for name, j in index.items()}, len(rows)


def _apply_filters(columns: dict, n: int, filters: list[str]):
    """Positions of the rows every --filter COL=VALUE keeps, None for all n rows.

    A column absent from the header, and a field missing from a short
    row, read as an empty value.
    """
    if not filters:
        return None
    keep = np.ones(n, dtype=bool)
    for f in filters:
        if "=" not in f:
            raise InputError(f"bad --filter {f!r}, expected COL=VALUE")
        col, val = f.split("=", 1)
        if col not in columns:
            keep &= val == ""
            continue
        values, codes = columns[col]
        keep &= np.array([(v or "") == val for v in values], dtype=bool)[codes]
    return np.flatnonzero(keep)


def _raise_row_error(columns: dict, rows, args) -> None:
    """Raise the error of the first bad field, scanning row by row in column order.

    rows holds the positions of the kept rows.  A message numbers them
    from 2, the header being row 1, as the row-by-row parse meets them.
    """
    columns = {name: (values, codes.tolist()) for name, (values, codes) in columns.items()}

    def field(name, i):
        values, codes = columns[name]
        return values[codes[i]]

    for n, i in enumerate(rows, start=2):
        try:
            float(field(args.outcome, i))
            int(field(args.sector, i))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"row {n}: bad outcome/sector field ({exc})") from exc
        if args.weight:
            try:
                float(field(args.weight, i))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"row {n}: bad weight ({exc})") from exc
        if args.instrument:
            if args.instrument not in columns or field(args.instrument, i) in (None, ""):
                raise InputError(f"row {n}: missing instrument value")


def _load_sample(args) -> OutcomeSample:
    if not args.data:
        raise InputError("need --data FILE (binary, generalized and oracle also take --cells)")
    names = {args.outcome, args.sector, args.weight, args.instrument}
    names.update(f.split("=", 1)[0] for f in args.filter)
    columns, n = _read_columns(args.data, names)
    # The sector and instrument hold few distinct fields: listed row by row
    # (by csv.reader, or for fields over 8 bytes), each is coded with one
    # dict pass, so each distinct field is converted once below.
    for name in (args.sector, args.instrument):
        if name in columns:
            values, codes = columns[name]
            distinct, first = functional.code_values(values)
            if len(distinct) < len(values):
                columns[name] = distinct, first[codes]
    keep = _apply_filters(columns, n, args.filter)
    rows = range(n) if keep is None else keep
    if not len(rows):
        raise InputError("no rows after filtering")

    def column(name):
        """The listed fields of the kept rows and the index of each row's, every field kept by some row."""
        values, codes = columns[name]
        if keep is None:
            return values, codes
        codes = codes[keep]
        used = np.bincount(codes, minlength=len(values)) > 0
        if used.all():
            return values, codes
        return [v for v, u in zip(values, used.tolist()) if u], (np.cumsum(used) - 1)[codes]

    def parse(convert, name):
        values, codes = column(name)
        return np.array(list(map(convert, values)))[codes]

    # Each listed field is converted once; only a failure walks the rows for its message.
    try:
        y = parse(float, args.outcome)
        d = parse(int, args.sector)
        w = parse(float, args.weight) if args.weight else None
        labels, codes = column(args.instrument) if args.instrument else (None, None)
        if labels is not None and (None in labels or "" in labels):
            raise ValueError
    except (KeyError, TypeError, ValueError):
        _raise_row_error(columns, rows, args)
    try:
        return OutcomeSample.from_arrays(y, d, w, labels=labels, codes=codes)
    except RoyBoundsError as exc:
        raise InputError(str(exc)) from exc


def _json_floats(values) -> np.ndarray:
    """A list of JSON numbers as floats; TypeError for anything else, or an int too large for a float."""
    # JSON true and false are no numbers here, though Python counts a bool as an int.
    if not all(type(v) in (int, float) for v in values):
        raise TypeError("not a JSON number")
    try:
        return np.array(values, dtype=float)
    except OverflowError as exc:
        raise TypeError("too large for a float") from exc


_CELL_KEYS = ("q00", "q01", "q10", "q11")


def _read_json(what: str, text: str | None = None, path: str | None = None):
    """The JSON value of text, or of the UTF-8 file at path.

    A file that cannot be read, text that is not JSON, and JSON nested
    past the recursion limit all raise InputError `bad <what>: ...`.
    """
    try:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _cells_from_obj(obj) -> CellProbs:
    if not isinstance(obj, dict) or not all(k in obj for k in _CELL_KEYS):
        raise InputError(f"bad --cells payload: need an object with keys {', '.join(_CELL_KEYS)}")
    try:
        q = _json_floats([obj[k] for k in _CELL_KEYS])
    except TypeError as exc:
        raise InputError(f"bad --cells payload: cell probabilities must be numbers ({exc})") from exc
    return validate_cells(*q)


def _cells_from_json(text: str) -> CellProbs:
    """One set of cell probabilities {"q00": .., "q01": .., "q10": .., "q11": ..}."""
    return _cells_from_obj(_read_json("--cells payload", text))


def _table_from_json(text: str) -> InstrumentTable:
    """Instrument table from one set of cells or an object of them keyed by z.

    An object with a "q00" key is one set of cells unless one of its values
    is an object: then "q00" is an instrument value.
    """
    obj = _read_json("--cells payload", text)
    if isinstance(obj, dict) and "q00" in obj and not any(isinstance(v, dict) for v in obj.values()):
        return InstrumentTable.from_cells({"z0": _cells_from_obj(obj)})
    if not isinstance(obj, dict) or not obj:
        raise InputError("bad --cells payload: need cells or a nonempty object of cells per z")
    return InstrumentTable.from_cells({z: _cells_from_obj(c) for z, c in obj.items()})


def _table_from_sample(s: OutcomeSample) -> inference.SampleTable:
    """The tabulation of a sample with an instrument column."""
    if s.labels is None:
        raise InputError("--instrument column required")
    return inference.tabulate(s)


def _digest(sample) -> dict:
    return {"rows": int(sample.n), "weight_total": float(sample.w.sum())}


def _quantile_pair(args):
    try:
        q1, q2 = (float(x) for x in args.quantiles.split(","))
        return q1, q2
    except ValueError as exc:
        raise InputError(f"bad --quantiles {args.quantiles!r}") from exc


def _cmd_binary(args, report):
    if args.cells:
        q = _cells_from_json(args.cells)
        res = binary.sharp_bounds(q)
    else:
        sample = _load_sample(args)
        report["digest"] = _digest(sample)
        if args.instrument:
            res = binary.sharp_bounds_with_instrument(_table_from_sample(sample).table(), tau_y=args.tau_y)
        else:
            # No instrument column: one pooled row of cell sums.
            res = binary.sharp_bounds(validate_cells(*inference.tabulate(sample).sums[0]))
    report["bounds"] = res.to_dict()


def _cmd_generalized(args, report):
    if args.cells:
        table = _table_from_json(args.cells)
    else:
        sample = _load_sample(args)
        report["digest"] = _digest(sample)
        tab = _table_from_sample(sample)
        table = tab.table()
        if args.bootstrap:
            cv = inference.critical_value(tab, level=args.level, b=args.bootstrap, seed=args.seed)
            ci = inference.assemble_cis(tab, cv.k, level=cv.level, b=cv.b, seed=cv.seed)
            report["confidence"] = ci.to_dict()
    report["bounds"] = generalized.compute_all(table).to_dict()


def _cmd_functional(args, report):
    sample = _load_sample(args)
    report["digest"] = _digest(sample)
    c = build_subcdf(sample)
    deciles = [round(q, 2) for q in np.linspace(0.1, 0.9, 9)]
    grid = sorted({c.inv_cdf(q) for q in deciles})
    out = {"p_d1": c.p_d1, "envelopes": []}
    for y in grid:
        out["envelopes"].append(
            {
                "y": y,
                "f0": functional.peterson_bounds(c, 0, y).to_dict(),
                "f1": functional.peterson_bounds(c, 1, y).to_dict(),
                "mobility_upper": functional.mobility_upper(c, y),
            }
        )
    report["bounds"] = out


def _cmd_iqr(args, report):
    sample = _load_sample(args)
    report["digest"] = _digest(sample)
    q1, q2 = _quantile_pair(args)
    c = build_subcdf(sample)
    res = functional.iqr_bounds(c, args.d, q1, q2)
    report["bounds"] = {"iqr": res.to_dict(), "d": args.d, "q1": q1, "q2": q2}
    if args.bootstrap:
        ci = inference.iqr_ci(
            sample, args.d, q1, q2, level=args.level, b=args.bootstrap, seed=args.seed
        )
        report["confidence"] = {"iqr": ci.to_dict()}


def _cmd_infer(args, report):
    sample = _load_sample(args)
    report["digest"] = _digest(sample)
    ci = inference.infer_bounds(sample, level=args.level, b=args.bootstrap, seed=args.seed)
    report["bounds"] = ci.to_dict()
    if ci.crossed:
        report["findings"] = {"model_rejected": True, "reasons": ["empty confidence interval"]}


def _design_floats(values, what: str, lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
    """JSON numbers of a design file as floats, each finite and in [lo, hi]; else `what` is wrong."""
    try:
        x = _json_floats(values)
    except TypeError:
        x = np.array([np.nan])
    if not (np.isfinite(x) & (x >= lo) & (x <= hi)).all():
        raise InputError(f"bad design: {what}")
    return x


# The keys of a design file: its own, and those of each joint type.  The
# design's keys sit beside an inline joint, never inside a nested "joint".
_DESIGN_KEYS = ("joint", "pi", "z_labels", "z_weights")
_JOINT_KEYS = {
    "discrete": ("type", "support", "probs"),
    "gaussian": ("type", "mu0", "sd0", "mu1", "sd1", "rho"),
}


def _check_keys(spec: dict, allowed) -> None:
    """Reject the first key of spec outside allowed: a misspelled key would be ignored."""
    for key in spec:
        if key not in allowed:
            raise InputError(f"bad design: unknown key {key!r}")


def _joint_from_spec(spec, design_keys=()):
    from . import oracle

    if not isinstance(spec, dict):
        raise InputError("bad design: the joint law must be a JSON object")
    kind = spec.get("type", "discrete")
    if kind not in ("discrete", "gaussian"):
        raise InputError(f"unknown joint type {kind!r}")
    _check_keys(spec, (*_JOINT_KEYS[kind], *design_keys))
    if kind == "discrete":
        probs = _design_floats(spec.get("probs"), "probs must be a list of numbers >= 0", 0)
        support = spec.get("support")
        pairs = isinstance(support, list) and all(isinstance(p, list) and len(p) == 2 for p in support)
        if not pairs or len(support) != len(probs):
            raise InputError("bad design: support must list one pair [y0, y1] per probability")
        _design_floats([v for p in support for v in p], "support points must be finite numbers")
        if not 0 < probs.sum() < np.inf:
            raise InputError("bad design: probs must have a positive finite sum")
        return oracle.DiscreteJoint(support=tuple(tuple(p) for p in support), probs=tuple(spec["probs"]))
    mu0, sd0, mu1, sd1, rho = _design_floats(
        [spec.get("mu0", 0.0), spec.get("sd0", 1.0), spec.get("mu1", 0.0),
         spec.get("sd1", 1.0), spec.get("rho", 0.0)],
        "mu0, sd0, mu1, sd1 and rho must be finite numbers",
    ).tolist()
    if min(sd0, sd1) < 0 or not -1 <= rho <= 1:
        raise InputError("bad design: need sd0 and sd1 >= 0 and rho in [-1, 1]")
    return oracle.GaussianCopulaJoint(mu0=mu0, sd0=sd0, mu1=mu1, sd1=sd1, rho=rho)


def _cmd_simulate(args, report):
    from . import oracle

    spec = _read_json("design file", path=args.design)
    if not isinstance(spec, dict):
        raise InputError("bad design file: need a JSON object")
    labels, weights = spec.get("z_labels", []), spec.get("z_weights", [])
    if not isinstance(labels, list) or not all(type(z) in (str, int, float) for z in labels):
        raise InputError("bad design: z_labels must be a list of strings or numbers")
    # The CSV holds str(z), and a sample's instrument values are that text.
    text = [str(z) for z in labels]
    if "" in text or len(set(text)) != len(text):
        raise InputError("bad design: z_labels must be distinct and non-empty as CSV text")
    w = _design_floats(weights, "z_weights must be numbers >= 0", 0)
    if len(w) and (len(w) != len(labels) or not 0 < w.sum() < np.inf):
        raise InputError("bad design: need one z_weight per z_label, with a positive finite sum")
    _design_floats([spec.get("pi", 0.5)], "pi must be in [0, 1]", 0, 1)
    if "joint" in spec:
        _check_keys(spec, _DESIGN_KEYS)
        joint = _joint_from_spec(spec["joint"])
    else:
        joint = _joint_from_spec(spec, _DESIGN_KEYS)
    design = oracle.SimDesign(
        joint=joint,
        n=args.n,
        seed=args.seed,
        pi=spec.get("pi", 0.5),
        z_labels=tuple(labels),
        z_weights=tuple(weights),
    )
    # A draw that overflows fails below as a non-finite outcome.
    with np.errstate(over="ignore"):
        sample, _truth = oracle.simulate(design)
    columns = [map(repr, sample.y.tolist()), sample.d.tolist()]
    if sample.labels is not None:
        columns.append(sample.z.tolist())
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        # "\n" line ends keep the file plain, for the loader's fast path.
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "d", "z"][: len(columns)])
        writer.writerows(zip(*columns))
    try:
        with open(args.out + ".truth.json", "w", encoding="utf-8") as fh:
            json.dump({"design": spec, "n": args.n, "seed": args.seed}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError:
        # A sample without its truth record is a failed run: leave no sample.
        os.remove(args.out)
        raise
    report["bounds"] = {"written": args.out, "rows": args.n}
    report["digest"] = {"rows": args.n, "weight_total": 1.0}


def _cmd_oracle(args, report):
    from . import oracle

    if args.objective:
        if args.cells:
            table = _table_from_json(args.cells)
        else:
            sample = _load_sample(args)
            report["digest"] = _digest(sample)
            table = _table_from_sample(sample).table()
        try:
            res = oracle.response_type_lp(table, oracle.OBJECTIVES[args.objective])
        except ModuleNotFoundError as exc:
            if (exc.name or "").split(".")[0] != "scipy":
                raise
            raise InputError("oracle --objective needs scipy: pip install 'roybounds[oracle]'") from exc
        report["bounds"] = {args.objective: res.to_dict()}
        return
    if not args.cells:
        raise InputError("oracle needs --cells or --objective with a data source")
    q = _cells_from_json(args.cells)
    variant = args.variant or "roy"
    poly = oracle.artstein_set(q, variant=variant)
    report["bounds"] = {
        "variant": variant,
        "halfspaces": [{"a": list(a), "b": b} for a, b in poly.halfspaces],
        "feasible": poly.is_feasible(),
    }


# Each subcommand: its help, the options it reads and its handler.  A handler
# fills the report; it rejects the model by setting the report's findings or
# by raising Infeasible or OutcomeInstrumentDependence (exit 2).
_COMMANDS = {
    "binary": ("binary Roy model bounds", (*_INTERVALS, "--instrument", "--cells", "--tau-y"), _cmd_binary),
    "generalized": (
        "generalized binary model bounds", (*_INTERVALS, "--instrument", "--cells", *_DRAWS), _cmd_generalized
    ),
    "functional": ("continuous-outcome envelope report", _SAMPLE, _cmd_functional),
    "iqr": ("interquantile-range bounds", (*_INTERVALS, "--d", "--quantiles", *_DRAWS), _cmd_iqr),
    "infer": ("intersection-bounds confidence intervals", (*_INTERVALS, "--instrument", *_DRAWS), _cmd_infer),
    "simulate": ("draw a seeded sample from a design", ("--design", "--n", "--out", "--seed"), _cmd_simulate),
    "oracle": (
        "brute-force oracles", (*_INTERVALS, "--instrument", "--cells", "--variant", "--objective"), _cmd_oracle
    ),
}


def _csv_rows(prefix: str, section: dict) -> list[str]:
    """One `name,lo,hi` row per interval of a report section, by name."""
    return [
        f"{prefix}{name},{val['lo']},{val['hi']}"
        for name, val in sorted(section.items())
        if isinstance(val, dict) and "lo" in val
    ]


def _emit(report: dict, args) -> None:
    if args.format == "csv" and "bounds" in report:
        rows = ["name,lo,hi", *_csv_rows("", report["bounds"])]
        rows += _csv_rows("confidence.", report.get("confidence", {}))
        text = "\n".join(rows) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out and args.cmd != "simulate":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv) -> int:
    try:
        args = _make_parser().parse_args(argv)
        # Told from the argv, not the values: some options have a default.  A
        # token that is a flag, or a flag and "=", is that option to argparse too.
        given = {a.split("=", 1)[0] for a in argv if a.startswith("--")}
        for first, second in _EXCLUSIVE.get(args.cmd, ()):
            if first in given and second in given:
                raise InputError(f"argument {second}: not allowed with argument {first}")
        for first, second in _REQUIRES.get(args.cmd, ()):
            if first in given and not getattr(args, second[2:]):
                raise InputError(f"argument {first}: not allowed without argument {second}")
        report = {
            "command": list(argv),
            "digest": {"rows": 0, "weight_total": 1.0},
            "seed": args.seed,
            "bounds": {},
            "findings": {"model_rejected": False, "reasons": []},
        }
        # ROY_THREADS is checked for every command, not only when a bootstrap draws.
        inference._n_threads()
        try:
            _COMMANDS[args.cmd][2](args, report)
        except (Infeasible, OutcomeInstrumentDependence) as exc:
            report["findings"] = {"model_rejected": True, "reasons": [str(exc)]}
        _emit(report, args)
        return EXIT_REJECTED if report["findings"]["model_rejected"] else EXIT_OK
    except (RoyBoundsError, OSError, MemoryError) as exc:
        # Malformed input, an --out that cannot be written, or a draw too large for
        # memory.  numpy's message names the allocation that failed; a bare MemoryError has none.
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
