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
from .reports import CSV_FIELDS, to_csv_row
from .symgroup import Partition
from .sunrep import SUIrrepLabel, gt_basis, lift
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
    with np.errstate(over="ignore", invalid="ignore"):  # reported as one error below
        value = immanant(partition, target)
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
        element = UnitaryElement.from_matrix(mat, tol=args.tol)
        k = rows if rows is not None else tuple(range(1, m + 1))
        q = cols if cols is not None else tuple(range(1, m + 1))
        dual = immanant_via_duality(m, partition, k, q, element)
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
    # Every suite reads --seed, --samples and --tol; the rest are suite specific.
    if args.m is not None and args.suite not in ("kostant", "corollary4", "conjecture"):
        raise DomainError(f"--m does not apply to verify {args.suite}")
    if args.m is not None and args.m < 2:
        raise DomainError(f"--m must be >= 2, got {args.m}")
    for flag in ("partition", "rows", "cols"):
        if getattr(args, flag) is not None and args.suite != "conjecture":
            raise DomainError(f"--{flag} applies only to verify conjecture")
    if (args.rows is None) != (args.cols is None):
        raise DomainError("--rows and --cols must be supplied together")
    kwargs = {"seed": args.seed}
    if args.samples is not None:
        kwargs["samples"] = args.samples
    if args.tol is not None:
        kwargs["entry_tol" if args.suite == "conjecture" else "tol"] = args.tol
    if args.m is not None and args.suite == "conjecture":
        kwargs["m"] = args.m
    elif args.m is not None:
        kwargs["m_values"] = (args.m,)
    if args.partition is not None:
        kwargs["partition"] = Partition(_parse_ints(args.partition))
    if args.rows is not None:
        kwargs["selectors"] = [(_parse_ints(args.rows), _parse_ints(args.cols))]
    reports = run_suite(args.suite, **kwargs)
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
    lifted = lift(irrep, UnitaryElement.from_matrix(mat, tol=args.tol)).matrix
    if not np.all(np.isfinite(lifted)):
        raise DomainError(f"the lift into {irrep} has non-finite entries")
    # One JSON record per (r, t): {"irrep": row, "r": tag, "t": tag, "value": [re, im]},
    # written from tags encoded once; repr of a finite float is its JSON form.
    tags = [_json(p.as_lists()) for p in gt_basis(irrep)]
    head = '{"irrep":' + _json(list(irrep.row)) + ',"r":'
    with _Output(args.out) as fh:
        for r_tag, values in zip(tags, lifted):
            prefix = head + r_tag + ',"t":'
            fh.writelines(
                f'{prefix}{t_tag},"value":[{val.real!r},{val.imag!r}]}}\n'
                for t_tag, val in zip(tags, values.tolist())
            )
    return EXIT_OK


def _check_shared_flags(args) -> None:
    """Reject malformed shared flags before any subcommand runs, whether or
    not that subcommand reads them."""
    if getattr(args, "partition", None):
        Partition(_parse_ints(args.partition))
    if getattr(args, "rows", None) and getattr(args, "cols", None):
        SubmatrixSelector(_parse_ints(args.rows), _parse_ints(args.cols))
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise DomainError("tolerance must be positive and finite")
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

    def add_common(p, tol):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--out", help="write output to a file instead of stdout")

    p_imm = sub.add_parser("immanant", help="evaluate one immanant")
    p_imm.add_argument("--partition", required=True, help="e.g. 2,1")
    p_imm.add_argument("--rows", help="kept rows (1-based, increasing)")
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
