"""Command-line interface.

Subcommands
-----------
``immanant``         evaluate Imm^{p} of a matrix (optionally a submatrix),
                     with an optional duality cross-check
``verify``           run a named verification suite, streaming reports
``dump-dfunctions``  tabulate every group function of one irrep at one
                     group element as JSON lines

Matrices are supplied as JSON files: row-major nested arrays whose entries
are [re, im] pairs.  Bare invocations are reproducible: the default seed is
the documented constant 1905.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from functools import cache

import numpy as np

from .dualspace import immanant_via_duality_stack
from .errors import DomainError, MatrixParseError, ResourceLimitError
from .linalgimm import (
    DEFAULT_SEED,
    SubmatrixSelector,
    UnitaryElements,
    as_square,
    check_immanant_side,
    haar_random_unitaries,
    immanant_batch,
    su2_euler,
    submatrix,
)
from .reports import CSV_FIELDS, to_csv_row
from .symgroup import Partition
from .sunrep import ENTRY_CAP, SUIrrepLabel, lift_batch, pattern_rows
from .verification import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise DomainError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from exc


def load_matrix_file(path: str) -> np.ndarray:
    """Read a row-major JSON matrix: rows of equal length of [re, im] pairs,
    each exactly two JSON numbers (true and false are not numbers)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        if not all(
            len(entry) == 2 and {type(x) for x in entry} <= {int, float}
            for row in data
            for entry in row
        ):
            raise TypeError
        mat = np.array([[complex(*entry) for entry in row] for row in data], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixParseError(
            f"{path}: entries must be [re, im] pairs of numbers in rows of equal length"
        ) from exc
    if mat.ndim != 2:
        raise MatrixParseError(f"{path}: expected a two-dimensional array")
    return mat


def _matrix_source(args) -> tuple[int | None, Callable[[], np.ndarray]]:
    """Check the matrix source flags (exactly one of --matrix-file, --euler,
    --identity, --haar), and return the side that --identity or --haar
    names (None for the others) with a function that returns the matrix.

    A file is read and an Euler matrix built at once, and the function
    returns them; an identity or a Haar sample, whose side is the user's,
    is built only when the function is called, so that a command can
    refuse that side first, and the function refuses a side whose matrix
    would hold more than ``ENTRY_CAP`` entries before allocating it.
    """
    sources = [
        args.matrix_file is not None,
        args.euler is not None,
        args.identity is not None,
        args.haar is not None,
    ]
    if sum(sources) != 1:
        raise DomainError(
            "supply exactly one of --matrix-file, --euler, --identity, --haar"
        )
    if args.matrix_file is not None:
        mat = load_matrix_file(args.matrix_file)
        return None, lambda: mat
    if args.euler is not None:
        angles = _parse_floats(args.euler)
        if len(angles) != 3:
            raise DomainError("--euler needs three comma-separated angles")
        mat = su2_euler(*angles).matrices[0]
        return None, lambda: mat
    if args.identity is not None:
        if args.identity < 1:
            raise DomainError(f"--identity must be >= 1, got {args.identity}")
        side, make = args.identity, lambda: np.eye(args.identity, dtype=np.complex128)
    else:
        if args.haar < 2:
            raise DomainError(f"--haar must be >= 2, got {args.haar}")
        side, make = args.haar, lambda: haar_random_unitaries(args.haar, [args.seed]).matrices[0]

    def build():
        if side * side > ENTRY_CAP:
            raise ResourceLimitError(
                f"a {side} x {side} matrix holds {side * side} entries, over the entry cap {ENTRY_CAP}"
            )
        return make()

    return side, build


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


class _Output:
    """Stdout, or the ``--out`` file, which is opened on entering the
    ``with`` block and closed on leaving it; stdout is flushed instead.
    Failing to open, write, flush or close either is a DomainError."""

    def __init__(self, path: str | None):
        self.path = path

    def __enter__(self):
        if self.path is None:
            self.fh = sys.stdout
            return self.fh
        try:
            self.fh = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write {self.path}: {exc.strerror}") from exc
        return self.fh

    def __exit__(self, exc_type, exc, tb):
        try:
            if self.path is None:
                self.fh.flush()
            else:
                self.fh.close()
        except OSError as close_exc:
            exc = exc or close_exc
        if isinstance(exc, OSError):
            if self.path is None:
                _discard_stdout()
            raise DomainError(f"cannot write {self.path or 'stdout'}: {exc.strerror}") from exc


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that the output
    still buffered in sys.stdout cannot fail again at interpreter exit."""
    with contextlib.suppress(OSError, ValueError):  # no descriptor: nothing left to fail
        fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def cmd_immanant(args) -> int:
    partition = Partition(_parse_ints(args.partition))
    side, build = _matrix_source(args)
    rows = _parse_ints(args.rows) if args.rows else None
    cols = _parse_ints(args.cols) if args.cols else None
    if (rows is None) != (cols is None):
        raise DomainError("--rows and --cols must be supplied together")
    selector = None if rows is None else SubmatrixSelector(rows, cols)
    if side is not None:
        check_immanant_side(partition, side, selector)
    mat = build()
    target = as_square(mat if selector is None else submatrix(mat, selector))
    with np.errstate(over="ignore", invalid="ignore"):  # reported as one error below
        value = complex(immanant_batch(partition, target[None])[0])
    if not cmath.isfinite(value):
        raise DomainError(f"Imm^{partition} is not finite: {value}")
    record = {
        "command": "immanant",
        "partition": list(partition.parts),
        "rows": list(rows) if rows else None,
        "cols": list(cols) if cols else None,
        "value": [value.real, value.imag],
    }
    exit_code = EXIT_OK
    if args.duality:
        m = mat.shape[0]
        UnitaryElements(mat[None], tol=args.tol)  # refuses a non-unitary matrix
        k = rows if rows is not None else tuple(range(1, m + 1))
        q = cols if cols is not None else tuple(range(1, m + 1))
        dual = complex(immanant_via_duality_stack(m, partition, [(k, q)], mat[None])[0, 0])
        record["duality_value"] = [dual.real, dual.imag]
        record["duality_residual"] = abs(dual - value)
        record["pass"] = record["duality_residual"] < args.tol
        if not record["pass"]:
            exit_code = EXIT_FAIL
    with _Output(args.out) as fh:
        if args.format == "pretty":
            fh.write(f"Imm^{partition}: {value.real:+.15g}{value.imag:+.15g}j\n")
            if args.duality:
                fh.write(f"duality residual: {record['duality_residual']:.3e}\n")
        else:
            fh.write(_json(record) + "\n")
    return exit_code


def cmd_verify(args) -> int:
    # Each flag given is the suite keyword of its own name; run_suite refuses
    # one that the suite does not take.
    if args.m is not None and args.m < 2:
        raise DomainError(f"--m must be >= 2, got {args.m}")
    if (args.rows is None) != (args.cols is None):
        raise DomainError("--rows and --cols must be supplied together")
    flags = ("m", "partition", "rows", "cols", "samples", "tol")
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    if args.partition is not None:
        given["partition"] = Partition(_parse_ints(args.partition))
    if args.rows is not None:
        given["rows"], given["cols"] = _parse_ints(args.rows), _parse_ints(args.cols)
    reports = run_suite(args.suite, seed=args.seed, **given)
    if not reports:
        raise DomainError(f"verify {args.suite} has nothing to check with these flags")
    with _Output(args.out) as fh:
        if args.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_FIELDS)
            writer.writerows(to_csv_row(report) for report in reports)
        else:
            for report in reports:
                line = report.to_json_line() if args.format == "json" else report.to_pretty()
                fh.write(line + "\n")
    return EXIT_OK if all(report.passed for report in reports) else EXIT_FAIL


def cmd_dump_dfunctions(args) -> int:
    if args.row and args.partition is None and args.m is None:
        row = _parse_ints(args.row)
        irrep = SUIrrepLabel(len(row), row)
    elif args.partition and args.m and args.row is None:
        irrep = SUIrrepLabel.from_partition(Partition(_parse_ints(args.partition)), args.m)
    else:
        raise DomainError("supply either --row or both --partition and --m")
    side, build = _matrix_source(args)
    if side is None:  # a file or an Euler matrix: already built
        side = build().shape[0]
    if side != irrep.m:
        raise DomainError(f"matrix side {side} != m = {irrep.m}")
    mat = build()
    elements = UnitaryElements(as_square(mat)[None], tol=args.tol)
    lifted = lift_batch([irrep], elements)[0][0]
    # One line per (r, t): the compact JSON of {"irrep": row, "r": tag, "t": tag,
    # "value": [re, im]}, keys in that order. Each row r is one % over templates
    # built once, fed its interleaved real and imaginary parts; %r of a finite
    # float is the shortest round-trip repr that json.dumps writes. The tags and
    # head are JSON of integer lists, so they hold no % to misread.
    tags = [_json(rows) for rows in pattern_rows(irrep)]
    tails = [t_tag + ',"value":[%r,%r]}\n' for t_tag in tags]
    head = '{"irrep":' + _json(list(irrep.row)) + ',"r":'
    with _Output(args.out) as fh:
        for r_tag, row in zip(tags, lifted.view(np.float64).tolist()):
            prefix = head + r_tag + ',"t":'
            fh.write(prefix + prefix.join(tails) % tuple(row))
    return EXIT_OK


def _check_shared_flags(args) -> None:
    """Reject malformed shared flags before any subcommand runs, whether or
    not that subcommand reads them."""
    if getattr(args, "partition", None):
        Partition(_parse_ints(args.partition))
    if getattr(args, "rows", None) and getattr(args, "cols", None):
        SubmatrixSelector(_parse_ints(args.rows), _parse_ints(args.cols))
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise DomainError("tolerance must be positive and finite")
    if getattr(args, "samples", None) is not None and args.samples < 1:
        raise DomainError("samples must be >= 1")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="immdfun",
        description="Immanants of unitary matrices and submatrices as sums of "
        "SU(m) group functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_element_args(p):
        p.add_argument("--matrix-file", help="JSON matrix of [re, im] pairs")
        p.add_argument("--euler", help="SU(2) Euler angles a,b,c")
        p.add_argument("--identity", type=int, help="identity matrix of the given size")
        p.add_argument("--haar", type=int, metavar="M", help="Haar sample of U(M)")

    def add_common(p, tol):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--out", help="write output to a file instead of stdout")

    p_imm = sub.add_parser("immanant", help="evaluate one immanant")
    p_imm.add_argument("--partition", required=True, help="e.g. 2,1")
    p_imm.add_argument("--rows", help="kept rows (1-based, distinct)")
    p_imm.add_argument("--cols", help="kept columns (1-based, distinct)")
    p_imm.add_argument("--check-duality", action="store_true", dest="duality")
    add_element_args(p_imm)
    add_common(p_imm, tol=1e-10)
    p_imm.add_argument("--format", choices=("json", "pretty"), default="json")
    p_imm.set_defaults(func=cmd_immanant)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=tuple(SUITES))
    p_ver.add_argument("--m", type=int)
    p_ver.add_argument("--partition")
    p_ver.add_argument("--rows")
    p_ver.add_argument("--cols")
    p_ver.add_argument("--samples", type=int)
    add_common(p_ver, tol=None)
    p_ver.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p_ver.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump-dfunctions", help="tabulate group functions")
    p_dump.add_argument("--row", help="irrep row, e.g. 2,1,0")
    p_dump.add_argument("--partition", help="partition labelling the irrep")
    p_dump.add_argument("--m", type=int)
    add_element_args(p_dump)
    add_common(p_dump, tol=1e-10)
    p_dump.set_defaults(func=cmd_dump_dfunctions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_shared_flags(args)
        return args.func(args)
    except (DomainError, MatrixParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def console_main():  # pragma: no cover - direct console wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
