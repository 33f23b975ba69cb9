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
import csv
import json
import sys

import numpy as np

from .dualspace import immanant_via_duality
from .errors import DomainError, MatrixParseError, ResourceLimitError
from .linalgimm import (
    DEFAULT_SEED,
    SubmatrixSelector,
    UnitaryElement,
    haar_random_unitary,
    immanant,
    su2_euler,
    submatrix,
)
from .reports import CSV_FIELDS, VerificationReport, to_csv_row
from .symgroup import Partition
from .sunrep import SUIrrepLabel, dfunction_records
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
    """Read a row-major JSON matrix of [re, im] entry pairs."""
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
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise MatrixParseError(
            f"{path}: entries must be [re, im] pairs in a nested row-major array"
        ) from exc
    mat = np.array(rows, dtype=np.complex128)
    if mat.ndim != 2:
        raise MatrixParseError(f"{path}: expected a two-dimensional array")
    return mat


def _resolve_element(args) -> np.ndarray:
    """Matrix from --matrix-file / --euler / --identity / --haar."""
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
        return load_matrix_file(args.matrix_file)
    if args.euler is not None:
        angles = _parse_floats(args.euler)
        if len(angles) != 3:
            raise DomainError("--euler needs three comma-separated angles")
        return su2_euler(*angles).matrix
    if args.identity is not None:
        return np.eye(args.identity, dtype=np.complex128)
    return haar_random_unitary(args.haar, args.seed).matrix


class _Output:
    """Report and record writer: stdout, or the ``--out`` file, which is
    opened on entering the ``with`` block and closed on leaving it."""

    def __init__(self, path: str | None, fmt: str):
        self.path, self.fmt = path, fmt
        self._csv = None

    def __enter__(self):
        if self.path is None:
            self.fh = sys.stdout
            return self
        try:
            self.fh = open(self.path, "w", encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write {self.path}: {exc.strerror}") from exc
        return self

    def __exit__(self, *exc_info):
        if self.path is not None:
            self.fh.close()

    def emit_report(self, report: VerificationReport):
        if self.fmt == "json":
            self.fh.write(report.to_json_line() + "\n")
        elif self.fmt == "csv":
            if self._csv is None:
                self._csv = csv.writer(self.fh, lineterminator="\n")
                self._csv.writerow(CSV_FIELDS)
            self._csv.writerow(to_csv_row(report))
        else:
            self.fh.write(report.to_pretty() + "\n")

    def emit_json(self, obj):
        self.fh.write(json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n")


def cmd_immanant(args) -> int:
    partition = Partition(_parse_ints(args.partition))
    mat = _resolve_element(args)
    rows = _parse_ints(args.rows) if args.rows else None
    cols = _parse_ints(args.cols) if args.cols else None
    if (rows is None) != (cols is None):
        raise DomainError("--rows and --cols must be supplied together")
    target = mat
    selector = None
    if rows is not None:
        selector = SubmatrixSelector(rows, cols)
        target = submatrix(mat, selector)
    value = immanant(partition, target)
    record = {
        "command": "immanant",
        "partition": list(partition.parts),
        "rows": list(rows) if rows else None,
        "cols": list(cols) if cols else None,
        "value": [value.real, value.imag],
    }
    exit_code = EXIT_OK
    if args.check_duality:
        m = mat.shape[0]
        element = UnitaryElement.from_matrix(mat, tol=args.tol)
        k = rows if rows is not None else tuple(range(1, m + 1))
        q = cols if cols is not None else tuple(range(1, m + 1))
        dual = immanant_via_duality(m, partition, k, q, element)
        record["duality_value"] = [dual.real, dual.imag]
        record["duality_residual"] = abs(dual - value)
        record["pass"] = record["duality_residual"] < args.tol
        if not record["pass"]:
            exit_code = EXIT_FAIL
    with _Output(args.out, args.format) as out:
        if args.format == "pretty":
            out.fh.write(f"Imm^{partition}: {value.real:+.15g}{value.imag:+.15g}j\n")
            if args.check_duality:
                out.fh.write(f"duality residual: {record['duality_residual']:.3e}\n")
        else:
            out.emit_json(record)
    return exit_code


def cmd_verify(args) -> int:
    # Every suite reads --seed, --samples and --tol; the rest are suite specific.
    kwargs = {"seed": args.seed}
    if args.samples is not None:
        kwargs["samples"] = args.samples
    if args.tol is not None:
        kwargs["entry_tol" if args.suite == "conjecture" else "tol"] = args.tol
    if args.m is not None and args.suite in ("kostant", "corollary4"):
        kwargs["m_values"] = (args.m,)
    if args.suite == "conjecture":
        if args.m is not None:
            kwargs["m"] = args.m
        if args.partition is not None:
            kwargs["partition"] = Partition(_parse_ints(args.partition))
        if args.rows and args.cols:
            kwargs["selectors"] = [(_parse_ints(args.rows), _parse_ints(args.cols))]
            kwargs["include_named_su5"] = False
    reports = run_suite(args.suite, **kwargs)
    with _Output(args.out, args.format) as out:
        for report in reports:
            out.emit_report(report)
    return EXIT_OK if all(report.passed for report in reports) else EXIT_FAIL


def cmd_dump_dfunctions(args) -> int:
    if args.row:
        row = _parse_ints(args.row)
        irrep = SUIrrepLabel(len(row), row)
    elif args.partition and args.m:
        irrep = SUIrrepLabel.from_partition(Partition(_parse_ints(args.partition)), args.m)
    else:
        raise DomainError("supply --row or both --partition and --m")
    mat = _resolve_element(args)
    if mat.shape[0] != irrep.m:
        raise DomainError(f"matrix side {mat.shape[0]} != m = {irrep.m}")
    element = UnitaryElement.from_matrix(mat, tol=args.tol)
    records = dfunction_records(irrep, element)
    with _Output(args.out, args.format) as out:
        for record in records:
            out.emit_json(record)
    return EXIT_OK


def _check_shared_flags(args) -> None:
    """Reject malformed shared flags before any subcommand runs, whether or
    not that subcommand reads them."""
    if getattr(args, "partition", None):
        Partition(_parse_ints(args.partition))
    if getattr(args, "rows", None) and getattr(args, "cols", None):
        SubmatrixSelector(_parse_ints(args.rows), _parse_ints(args.cols))
    if args.tol is not None and args.tol <= 0:
        raise DomainError("tolerance must be positive")
    if getattr(args, "samples", None) is not None and args.samples < 1:
        raise DomainError("samples must be >= 1")


def build_parser() -> argparse.ArgumentParser:
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

    def add_common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", help="write output to a file instead of stdout")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    p_imm = sub.add_parser("immanant", help="evaluate one immanant")
    p_imm.add_argument("--partition", required=True, help="e.g. 2,1")
    p_imm.add_argument("--rows", help="kept rows (1-based, increasing)")
    p_imm.add_argument("--cols", help="kept columns (1-based, distinct)")
    p_imm.add_argument("--check-duality", action="store_true")
    add_element_args(p_imm)
    add_common(p_imm)
    p_imm.set_defaults(func=cmd_immanant, tol_default=1e-10)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=tuple(SUITES))
    p_ver.add_argument("--m", type=int)
    p_ver.add_argument("--partition")
    p_ver.add_argument("--rows")
    p_ver.add_argument("--cols")
    p_ver.add_argument("--samples", type=int)
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify, tol_default=None)

    p_dump = sub.add_parser("dump-dfunctions", help="tabulate group functions")
    p_dump.add_argument("--row", help="irrep row, e.g. 2,1,0")
    p_dump.add_argument("--partition", help="partition labelling the irrep")
    p_dump.add_argument("--m", type=int)
    add_element_args(p_dump)
    add_common(p_dump)
    p_dump.set_defaults(func=cmd_dump_dfunctions, tol_default=1e-10)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol is None and getattr(args, "tol_default", None) is not None:
        args.tol = args.tol_default
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
