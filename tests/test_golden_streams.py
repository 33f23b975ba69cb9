"""The default-seed ``verify`` streams, one ``dump-dfunctions`` stream,
and the single-matrix commands, against their stored copies.

Each suite is rerun in process at its default seed and compared with
``tests/data/verify-<suite>.jsonl`` record by record; the dump of the
SU(4) irrep (2,1,1,0) at Haar sample 4 pins the basis order and the
pattern tags of every record against ``tests/data/dump-2110-haar4.jsonl``.
Each line of ``tests/data/immanant-cli.jsonl`` holds one command's argv
and the records it wrote: an immanant with and without the duality check,
on a Haar sample, a submatrix and an Euler matrix, and a small dump.  Pass flags,
integers, strings, keys and list lengths must be equal; each float may
move by less than 1e-12, absolutely or relative to its size.  The float
slack absorbs the BLAS reduction order (thread count, library build),
which moves the last bits of a residual but no decision.

A change that is meant to move a report regenerates its file with
``OPENBLAS_NUM_THREADS=1 immdfun verify SUITE > tests/data/verify-SUITE.jsonl``
(and ``immdfun dump-dfunctions --row 2,1,1,0 --haar 4`` for the dump; each
single-matrix command is rerun from its stored argv).
"""

import json
from pathlib import Path

import pytest

from immdfun.cli import EXIT_OK, main
from immdfun.verification import SUITES

DATA = Path(__file__).parent / "data"
FLOAT_TOL = 1e-12


def assert_same_report(old, new, path="record"):
    if isinstance(old, float) and isinstance(new, float):
        diff = abs(old - new)
        assert diff < FLOAT_TOL or diff < FLOAT_TOL * max(abs(old), abs(new)), (
            f"{path}: {old!r} -> {new!r}"
        )
    elif isinstance(old, dict) and isinstance(new, dict):
        assert list(old) == list(new), f"{path}: keys {list(old)} -> {list(new)}"
        for key in old:
            assert_same_report(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        assert len(old) == len(new), f"{path}: length {len(old)} -> {len(new)}"
        for i, (a, b) in enumerate(zip(old, new)):
            assert_same_report(a, b, f"{path}[{i}]")
    else:
        assert type(old) is type(new) and old == new, f"{path}: {old!r} -> {new!r}"


@pytest.mark.parametrize("suite", tuple(SUITES))
def test_default_seed_stream_matches_golden(capsys, suite):
    golden = (DATA / f"verify-{suite}.jsonl").read_text().splitlines()
    assert main(["verify", suite]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(golden)
    for i, (old, new) in enumerate(zip(golden, lines)):
        assert_same_report(json.loads(old), json.loads(new), f"{suite}[{i}]")


def test_dump_stream_matches_golden(capsys):
    golden = (DATA / "dump-2110-haar4.jsonl").read_text().splitlines()
    assert main(["dump-dfunctions", "--row", "2,1,1,0", "--haar", "4"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(golden) == 225
    for i, (old, new) in enumerate(zip(golden, lines)):
        assert_same_report(json.loads(old), json.loads(new), f"dump[{i}]")


def test_single_matrix_commands_match_golden(capsys):
    for line in (DATA / "immanant-cli.jsonl").read_text().splitlines():
        golden = json.loads(line)
        assert main(golden["argv"]) == EXIT_OK
        records = [json.loads(out) for out in capsys.readouterr().out.splitlines()]
        assert_same_report(golden["stdout"], records, " ".join(golden["argv"]))


@pytest.mark.parametrize(
    "new",
    [
        {"pass": False, "n": 3, "tag": "a", "r": [1e-15, 2.0]},
        {"pass": True, "n": 4, "tag": "a", "r": [1e-15, 2.0]},
        {"pass": True, "n": 3, "tag": "b", "r": [1e-15, 2.0]},
        {"pass": True, "n": 3, "tag": "a", "r": [1e-15, 2.0 + 1e-9]},
        {"pass": True, "n": 3, "tag": "a", "r": [2e-12, 2.0]},
        {"pass": True, "n": 3, "tag": "a", "r": [1e-15]},
        {"pass": True, "n": 3.0, "tag": "a", "r": [1e-15, 2.0]},
        {"pass": True, "n": 3, "tag": "a", "s": [1e-15, 2.0]},
    ],
)
def test_gate_rejects_any_moved_decision_or_float(new):
    old = {"pass": True, "n": 3, "tag": "a", "r": [1e-15, 2.0]}
    with pytest.raises(AssertionError):
        assert_same_report(old, new)


def test_gate_accepts_last_bit_float_moves():
    old = {"pass": True, "n": 3, "r": [1e-15, 2.0, 5e8]}
    assert_same_report(old, {"pass": True, "n": 3, "r": [9e-15, 2.0 + 4e-16, 5e8 + 1e-5]})
