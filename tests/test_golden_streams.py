"""The default-seed ``verify`` streams against their stored copies.

Each suite is rerun in process at its default seed and compared with
``tests/data/verify-<suite>.jsonl`` record by record.  Pass flags,
integers, strings, keys and list lengths must be equal; each float may
move by less than 1e-12, absolutely or relative to its size.  The float
slack absorbs the BLAS reduction order (thread count, library build),
which moves the last bits of a residual but no decision.

A change that is meant to move a report regenerates its file with
``OPENBLAS_NUM_THREADS=1 immdfun verify SUITE > tests/data/verify-SUITE.jsonl``.
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
