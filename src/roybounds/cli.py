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
import sys

import numpy as np

from . import binary, generalized, functional, inference
from .errors import (
    Infeasible,
    InputError,
    OutcomeInstrumentDependence,
    RoyBoundsError,
    ZeroSectorProbability,
)
from .functional import OutcomeSample, build_subcdf
from .probability import CellProbs, InstrumentTable, validate_cells

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REJECTED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _level(text: str) -> float:
    """--level: a confidence level strictly between 0 and 1."""
    try:
        level = float(text)
    except ValueError:
        level = np.nan
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(f"need 0 < level < 1, got {text!r}")
    return level


def _nonnegative(text: str) -> int:
    """--bootstrap (draws, 0 for none) and --seed: a nonnegative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"need a nonnegative integer, got {text!r}")
    return n


def _tolerance(text: str) -> float:
    """--tau-y: a finite nonnegative tolerance."""
    try:
        tau = float(text)
    except ValueError:
        tau = np.nan
    if not 0.0 <= tau < np.inf:
        raise argparse.ArgumentTypeError(f"need a finite tolerance >= 0, got {text!r}")
    return tau


def _add_common(p):
    p.add_argument("--data", help="CSV file with header row")
    p.add_argument("--cells", help="JSON cell probabilities")
    p.add_argument("--outcome", default="y")
    p.add_argument("--sector", default="d")
    p.add_argument("--instrument")
    p.add_argument("--weight")
    p.add_argument("--filter", action="append", default=[], metavar="COL=VALUE")
    p.add_argument("--out")
    p.add_argument("--seed", type=_nonnegative, default=0)
    p.add_argument("--level", type=_level, default=0.95)
    p.add_argument("--bootstrap", type=_nonnegative, default=0)
    p.add_argument("--quantiles", default="0.25,0.75")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _make_parser() -> _Parser:
    parser = _Parser(prog="roybounds", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("binary", help="binary Roy model bounds")
    _add_common(p)
    p.add_argument("--tau-y", type=_tolerance, default=0.0, dest="tau_y")

    p = sub.add_parser("generalized", help="generalized binary model bounds")
    _add_common(p)

    p = sub.add_parser("functional", help="continuous-outcome envelope report")
    _add_common(p)

    p = sub.add_parser("iqr", help="interquantile-range bounds")
    _add_common(p)
    p.add_argument("--d", type=int, default=1, choices=(0, 1))

    p = sub.add_parser("infer", help="intersection-bounds confidence intervals")
    _add_common(p)

    p = sub.add_parser("simulate", help="draw a seeded sample from a design")
    _add_common(p)
    p.add_argument("--design", required=True)
    p.add_argument("--n", type=int, default=1000)

    p = sub.add_parser("oracle", help="brute-force oracle computations")
    _add_common(p)
    # oracle.ROY and oracle.GENERALIZED, spelled out to keep scipy unloaded.
    p.add_argument("--variant", choices=("roy", "generalized"), default="roy")
    p.add_argument("--objective", choices=("ey0", "ey1", "p00", "p01", "p10", "p11"))
    return parser


# Bytes that csv.reader treats otherwise than as field text; any one makes a file not plain.
_CSV_ONLY = (b'"', b"\r", b"\0")


def _split_plain(raw: bytes, names: set):
    """(columns, rows) of a file that needs no CSV parser, as _read_columns; None for any other.

    A file is plain when it holds no quote, CR or NUL byte, no blank line
    (the first one included), no line longer than csv.field_size_limit(),
    and as many commas on every line as on the header.  csv.reader splits
    such a file at every comma and newline, so one split of the whole text
    gives its fields.  Commas and newlines are single bytes that no other
    UTF-8 character contains, so they are counted on the bytes.
    """
    if not raw or any(b in raw for b in _CSV_ONLY):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if raw[-1:] != b"\n":
        ends = np.append(ends, len(raw))
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() == 0 or lengths.max() > csv.field_size_limit():
        return None
    # Commas per line; no line is empty, so no two line starts coincide.
    commas = np.add.reduceat(buf == ord(","), ends - lengths, dtype=np.intp)
    if (commas != commas[0]).any():
        return None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    head, _, body = text.partition("\n")
    header = head.split(",")
    body = body[:-1] if body.endswith("\n") else body
    fields = body.replace("\n", ",").split(",") if body else []
    index = {name: j for j, name in enumerate(header) if name in names}
    return {name: fields[j :: len(header)] for name, j in index.items()}, len(fields) // len(header)


def _read_columns(path: str, names: set) -> tuple[dict[str, list], int]:
    """The named columns of a CSV file and its number of nonblank data rows.

    Fields are split as csv.reader splits them.  Only the names in the
    header get a column; a repeated name maps to its last occurrence, as
    in csv.DictReader, and a row too short to reach a column leaves None
    there.  A plain file is split directly (`_split_plain`); any other
    goes through csv.reader and only the named columns are transposed.
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
            return [r[j] for r in rows]
        except IndexError:
            return [r[j] if j < len(r) else None for r in rows]

    index = {name: j for j, name in enumerate(header) if name in names}
    return {name: column(j) for name, j in index.items()}, len(rows)


def _apply_filters(columns: dict, n: int, filters: list[str]):
    """Positions of the rows every --filter COL=VALUE keeps, None for all n rows.

    A column absent from the header, and a field missing from a short
    row, read as an empty value.
    """
    keep = None
    for f in filters:
        if "=" not in f:
            raise InputError(f"bad --filter {f!r}, expected COL=VALUE")
        col, val = f.split("=", 1)
        if col not in columns:
            keep = keep if val == "" else []
            continue
        c = columns[col]
        keep = [i for i in (range(n) if keep is None else keep) if (c[i] or "") == val]
    return keep


def _raise_row_error(columns: dict, rows, args) -> None:
    """Raise the error of the first bad field, scanning row by row in column order.

    rows holds the positions of the kept rows.  A message numbers them
    from 2, the header being row 1, as the row-by-row parse meets them.
    """
    for n, i in enumerate(rows, start=2):
        try:
            float(columns[args.outcome][i])
            int(columns[args.sector][i])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"row {n}: bad outcome/sector field ({exc})") from exc
        if args.weight:
            try:
                float(columns[args.weight][i])
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"row {n}: bad weight ({exc})") from exc
        if args.instrument:
            if args.instrument not in columns or columns[args.instrument][i] in (None, ""):
                raise InputError(f"row {n}: missing instrument value")


def _floats(column: list) -> np.ndarray:
    return np.fromiter(map(float, column), dtype=float, count=len(column))


def _load_sample(args) -> OutcomeSample:
    if not args.data:
        raise InputError("need --data FILE (binary, generalized and oracle also take --cells)")
    names = {args.outcome, args.sector, args.weight, args.instrument}
    names.update(f.split("=", 1)[0] for f in args.filter)
    columns, n = _read_columns(args.data, names)
    keep = _apply_filters(columns, n, args.filter)
    rows = range(n) if keep is None else keep
    if not rows:
        raise InputError("no rows after filtering")

    def column(name):
        c = columns[name]
        return c if keep is None else [c[i] for i in keep]

    # One conversion per column; only a failure walks the rows for its message.
    try:
        y = _floats(column(args.outcome))
        # A sector column holds few distinct fields: parse each one once.
        d = column(args.sector)
        memo = {v: int(v) for v in set(d)}
        d = [memo[v] for v in d]
        w = _floats(column(args.weight)) if args.weight else None
        z = column(args.instrument) if args.instrument else None
        if z is not None and not all(z):
            raise ValueError
    except (KeyError, TypeError, ValueError):
        _raise_row_error(columns, rows, args)
    try:
        return OutcomeSample.from_arrays(
            y,
            np.array(d),
            w,
            z=None if z is None else np.array(z, dtype=object),
        )
    except RoyBoundsError as exc:
        raise InputError(str(exc)) from exc


_CELL_KEYS = ("q00", "q01", "q10", "q11")


def _cells_payload(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad --cells payload: {exc}") from exc


def _cells_from_obj(obj) -> CellProbs:
    if not isinstance(obj, dict) or not all(k in obj for k in _CELL_KEYS):
        raise InputError(f"bad --cells payload: need an object with keys {', '.join(_CELL_KEYS)}")
    try:
        q = np.array([obj[k] for k in _CELL_KEYS], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad --cells payload: cell probabilities must be numbers ({exc})") from exc
    return validate_cells(*q)


def _cells_from_json(text: str) -> CellProbs:
    """One set of cell probabilities {"q00": .., "q01": .., "q10": .., "q11": ..}."""
    return _cells_from_obj(_cells_payload(text))


def _table_from_json(text: str) -> InstrumentTable:
    """Instrument table from one set of cells or an object of them keyed by z."""
    obj = _cells_payload(text)
    if isinstance(obj, dict) and "q00" in obj:
        return InstrumentTable.from_cells({"z0": _cells_from_obj(obj)})
    if not isinstance(obj, dict) or not obj:
        raise InputError("bad --cells payload: need cells or a nonempty object of cells per z")
    return InstrumentTable.from_cells({z: _cells_from_obj(c) for z, c in obj.items()})


def _table_from_sample(s: OutcomeSample) -> tuple[InstrumentTable, tuple]:
    """The instrument table of a sample, and the tabulation it was built from."""
    if s.z is None:
        raise InputError("--instrument column required")
    tab = inference.tabulate(s)
    labels, sums, totals, _ = tab
    cells = {z: validate_cells(*(q / tot)) for z, q, tot in zip(labels, sums, totals)}
    table = InstrumentTable.from_cells(cells, {z: float(tot) for z, tot in zip(labels, totals)})
    return table, tab


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
            res = binary.sharp_bounds_with_instrument(_table_from_sample(sample)[0], tau_y=args.tau_y)
        else:
            # No instrument column: one pooled row of cell sums.
            res = binary.sharp_bounds(validate_cells(*inference.tabulate(sample)[1][0]))
    report["bounds"] = res.to_dict()
    return EXIT_OK


def _cmd_generalized(args, report):
    if args.cells:
        table = _table_from_json(args.cells)
    else:
        sample = _load_sample(args)
        report["digest"] = _digest(sample)
        table, tab = _table_from_sample(sample)
        if args.bootstrap:
            theta = inference.theta_from_tabulation(tab, sample.n)
            cv = inference.critical_value(theta, level=args.level, b=args.bootstrap, seed=args.seed)
            ci = inference.assemble_cis(theta, cv.k, level=cv.level, b=cv.b, seed=cv.seed)
            report["confidence"] = ci.to_dict()
    res = generalized.compute_all(table)
    report["bounds"] = res.to_dict()
    if res.crossed:
        report["findings"] = {"model_rejected": True, "reasons": ["marginal bounds crossed"]}
        return EXIT_REJECTED
    return EXIT_OK


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
                "mobility_upper": functional.mobility_upper(c, y) if c.bar(0, y) > 0 else None,
            }
        )
    report["bounds"] = out
    return EXIT_OK


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
    return EXIT_OK


def _cmd_infer(args, report):
    sample = _load_sample(args)
    report["digest"] = _digest(sample)
    theta = inference.estimate_theta(sample)
    cv = inference.critical_value(theta, level=args.level, b=args.bootstrap or 999, seed=args.seed)
    ci = inference.assemble_cis(theta, cv.k, level=cv.level, b=cv.b, seed=cv.seed)
    report["bounds"] = ci.to_dict()
    try:
        att1, att0 = inference.att_ci(theta, cv)
    except ZeroSectorProbability:
        # A z without one sector has no ATT; assemble_cis leaves it out too.
        pass
    else:
        report["bounds"]["att1_bootstrap"] = att1.to_dict()
        report["bounds"]["att0_bootstrap"] = att0.to_dict()
    if ci.ey0.lo > ci.ey0.hi or ci.ey1.lo > ci.ey1.hi:
        report["findings"] = {"model_rejected": True, "reasons": ["empty confidence interval"]}
        return EXIT_REJECTED
    return EXIT_OK


def _oracle():
    """The oracle module, imported on demand: it needs scipy, the [oracle] extra."""
    try:
        from . import oracle
    except ModuleNotFoundError as exc:
        if (exc.name or "").split(".")[0] != "scipy":
            raise
        raise InputError("simulate and oracle need scipy: pip install 'roybounds[oracle]'") from exc
    return oracle


def _joint_from_spec(spec: dict):
    oracle = _oracle()

    kind = spec.get("type", "discrete")
    if kind == "discrete":
        return oracle.DiscreteJoint(
            support=tuple(tuple(p) for p in spec["support"]),
            probs=tuple(spec["probs"]),
        )
    if kind == "gaussian":
        return oracle.GaussianCopulaJoint(
            mu0=spec.get("mu0", 0.0),
            sd0=spec.get("sd0", 1.0),
            mu1=spec.get("mu1", 0.0),
            sd1=spec.get("sd1", 1.0),
            rho=spec.get("rho", 0.0),
        )
    raise InputError(f"unknown joint type {kind!r}")


def _cmd_simulate(args, report):
    oracle = _oracle()

    try:
        with open(args.design, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"bad design file: {exc}") from exc
    design = oracle.SimDesign(
        joint=_joint_from_spec(spec.get("joint", spec)),
        n=args.n,
        seed=args.seed,
        pi=spec.get("pi", 0.5),
        z_labels=tuple(spec.get("z_labels", ())),
        z_weights=tuple(spec.get("z_weights", ())),
    )
    sample, _truth = oracle.simulate(design)
    if not args.out:
        raise InputError("simulate requires --out for the CSV sample")
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["y", "d"] + (["z"] if sample.z is not None else [])
        writer.writerow(header)
        for i in range(sample.n):
            row = [repr(float(sample.y[i])), int(sample.d[i])]
            if sample.z is not None:
                row.append(sample.z[i])
            writer.writerow(row)
    with open(args.out + ".truth.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"design": spec, "n": args.n, "seed": args.seed},
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    report["bounds"] = {"written": args.out, "rows": args.n}
    report["digest"] = {"rows": args.n, "weight_total": 1.0}
    return EXIT_OK


_OBJECTIVES = {
    "p00": (1, 0, 0, 0),
    "p01": (0, 1, 0, 0),
    "p10": (0, 0, 1, 0),
    "p11": (0, 0, 0, 1),
    "ey0": (0, 0, 1, 1),
    "ey1": (0, 1, 0, 1),
}


def _cmd_oracle(args, report):
    oracle = _oracle()

    if args.objective:
        if args.cells:
            table = _table_from_json(args.cells)
        else:
            sample = _load_sample(args)
            report["digest"] = _digest(sample)
            table = _table_from_sample(sample)[0]
        res = oracle.response_type_lp(table, _OBJECTIVES[args.objective])
        report["bounds"] = {args.objective: res.to_dict()}
        return EXIT_OK
    if not args.cells:
        raise InputError("oracle needs --cells or --objective with a data source")
    q = _cells_from_json(args.cells)
    poly = oracle.artstein_set(q, variant=args.variant)
    report["bounds"] = {
        "variant": args.variant,
        "halfspaces": [{"a": list(a), "b": b} for a, b in poly.halfspaces],
        "feasible": poly.is_feasible(),
    }
    return EXIT_OK


_DISPATCH = {
    "binary": _cmd_binary,
    "generalized": _cmd_generalized,
    "functional": _cmd_functional,
    "iqr": _cmd_iqr,
    "infer": _cmd_infer,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
}


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "csv" and "bounds" in report:
        lines = ["name,lo,hi"]
        for name, val in sorted(report["bounds"].items()):
            if isinstance(val, dict) and "lo" in val:
                lines.append(f"{name},{val['lo']},{val['hi']}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None) and args.cmd != "simulate":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    report = {
        "command": list(argv),
        "digest": {"rows": 0, "weight_total": 1.0},
        "seed": args.seed,
        "bounds": {},
        "findings": {"model_rejected": False, "reasons": []},
    }
    try:
        # ROY_THREADS is checked for every command, not only when a bootstrap draws.
        inference._n_threads()
        code = _DISPATCH[args.cmd](args, report)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (Infeasible, OutcomeInstrumentDependence) as exc:
        report["findings"] = {"model_rejected": True, "reasons": [str(exc)]}
        _emit(report, args)
        return EXIT_REJECTED
    except RoyBoundsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    _emit(report, args)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
