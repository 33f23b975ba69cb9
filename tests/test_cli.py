import cmath
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import immdfun
from immdfun import cli, dualspace, plethysm, sunrep, verification
from immdfun.cli import EXIT_FAIL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, load_matrix_file, main
from immdfun.errors import MatrixParseError
from immdfun.symgroup import Partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestImmanantCommand:
    def test_identity_hook_partition(self, capsys):
        code, out, _ = run(capsys, "immanant", "--partition", "2,1", "--identity", "3")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["value"] == [2.0, 0.0]

    def test_euler_cos_beta(self, capsys):
        beta = math.pi / 3
        code, out, _ = run(
            capsys, "immanant", "--partition", "2", "--euler", f"0.0,{beta},0.0"
        )
        record = json.loads(out)
        assert code == EXIT_OK
        assert record["value"][0] == pytest.approx(0.5, abs=1e-12)

    def test_haar_permanent_matches_ryser(self, capsys):
        code, out, _ = run(
            capsys, "immanant", "--partition", "4", "--haar", "4", "--seed", "7"
        )
        assert code == EXIT_OK
        from _single import haar_random_unitary, permanent_ryser

        expected = permanent_ryser(haar_random_unitary(4, 7).matrices[0])
        record = json.loads(out)
        assert record["value"][0] == pytest.approx(expected.real, abs=1e-10)
        assert record["value"][1] == pytest.approx(expected.imag, abs=1e-10)

    def test_submatrix_with_duality_check(self, capsys):
        code, out, _ = run(
            capsys,
            "immanant",
            "--partition",
            "2,1",
            "--haar",
            "4",
            "--seed",
            "3",
            "--rows",
            "2,3,4",
            "--cols",
            "1,3,4",
            "--check-duality",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["pass"] is True
        assert record["duality_residual"] < 1e-10

    def test_rows_in_any_order(self, capsys):
        # rows follow the column rule: distinct, in any order
        argv = ("--partition", "2,1", "--haar", "4", "--rows", "2,1,3", "--cols", "1,2,3")
        code, out, _ = run(capsys, "immanant", *argv, "--check-duality")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["pass"] is True and record["duality_residual"] < 1e-10
        from _single import haar_random_unitary, immanant

        u = haar_random_unitary(4, cli.DEFAULT_SEED).matrices[0]
        sub = u[np.ix_([1, 0, 2], [0, 1, 2])]
        assert complex(*record["value"]) == immanant(Partition(2, 1), sub)

    def test_one_mode_duality_check(self, capsys):
        # m = 1: a single amplitude, so N must not be read off m^N
        code, out, _ = run(
            capsys, "immanant", "--partition", "1", "--identity", "1", "--check-duality"
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["pass"] is True
        assert record["duality_residual"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("--partition", "2,1", "--haar", "7", "--rows", "2,4,6", "--cols", "1,3,7"),
            ("--partition", "1,1,1,1,1,1,1", "--haar", "7"),
            ("--partition", "3,2,1,1", "--haar", "20", "--rows", "1,2,3,4,5,6,7",
             "--cols", "8,9,10,11,12,13,14"),
        ],
        ids=["submatrix", "full", "interferometer"],
    )
    def test_seven_mode_duality_check(self, capsys, argv):
        # the duality route is bounded by N^N, not by m
        code, out, _ = run(capsys, "immanant", *argv, "--check-duality")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["pass"] is True
        assert record["duality_residual"] < 1e-10

    @pytest.mark.parametrize(
        "mat, partition, value",
        [
            (np.array([[0.0, 1.0], [1.0, 0.0]]), "2", 1.0),
            (np.diag(np.exp([0.3j, 0.5j, 0.1j])), "3", cmath.exp(0.9j)),
        ],
        ids=["swap", "diagonal"],
    )
    def test_duality_check_reads_the_files_matrix(self, capsys, tmp_path, mat, partition, value):
        # det != 1: the duality route must not see a phase-normalised copy
        mat = mat.astype(np.complex128)
        path = tmp_path / "u.json"
        path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in mat]))
        code, out, _ = run(
            capsys, "immanant", "--partition", partition, "--matrix-file", str(path),
            "--check-duality",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert abs(complex(*record["value"]) - value) < 1e-12
        assert abs(complex(*record["duality_value"]) - value) < 1e-12
        assert record["pass"] is True

    def test_duality_check_refuses_a_non_unitary_matrix(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps([[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]))
        code, out, err = run(
            capsys, "immanant", "--partition", "2", "--matrix-file", str(path), "--check-duality"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "not unitary" in err

    def test_matrix_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
        code, out, _ = run(capsys, "immanant", "--partition", "2", "--matrix-file", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["value"] == [1.0, 0.0]

    def test_malformed_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[1, 2,\n  broken]]")
        code, _, err = run(capsys, "immanant", "--partition", "2", "--matrix-file", str(path))
        assert code == EXIT_USAGE
        assert "line" in err

    def test_size_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "immanant", "--partition", "2,1", "--identity", "4")
        assert code == EXIT_USAGE
        assert "partition" in err

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00"], ids=["missing", "binary"])
    def test_unreadable_matrix_file(self, capsys, tmp_path, content):
        path = tmp_path / "m.json"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, "immanant", "--partition", "2", "--matrix-file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([[[1e200, 0.0]] * 2] * 2))
        out_path = tmp_path / "imm.json"
        code, out, err = run(
            capsys, "immanant", "--partition", "2", "--matrix-file", str(path),
            "--out", str(out_path),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    def test_resource_cap(self, capsys):
        code, _, err = run(capsys, "immanant", "--partition", "10", "--identity", "10")
        assert code == EXIT_RESOURCE
        assert "capped" in err


class TestVerifyCommand:
    def test_kostant_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "3", "--seed", "1"
        )
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(rec["pass"] for rec in lines)
        assert {rec["suite"] for rec in lines} == {"kostant"}

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "kostant", "--m", "2", "--samples", "3")
        _, second, _ = run(capsys, "verify", "kostant", "--m", "2", "--samples", "3")
        assert first == second

    def test_conjecture_single_selector(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "conjecture",
            "--m",
            "4",
            "--partition",
            "2,1",
            "--rows",
            "2,3,4",
            "--cols",
            "1,3,4",
            "--samples",
            "3",
        )
        assert code == EXIT_OK
        record = json.loads(out.strip())
        assert record["details"]["unit_entries"] == 2

    def test_conjecture_unsorted_rows(self, capsys):
        # rows 2,1,3 against columns 1,2,3: the coefficient matrix is
        # orthogonal with one -1 entry, and the reconstruction still holds
        argv = ("--m", "4", "--partition", "2,1", "--rows", "2,1,3", "--cols", "1,2,3")
        code, out, _ = run(capsys, "verify", "conjecture", *argv, "--samples", "2")
        assert code == EXIT_FAIL
        [record] = [json.loads(line) for line in out.splitlines()]
        assert record["selector_rows"] == [2, 1, 3] and record["pass"] is False
        [violation] = record["details"]["violations"]
        assert abs(complex(*violation["value"]) + 1.0) < 1e-12
        assert record["details"]["max_cross_residual"] < 1e-9

    def test_conjecture_partition_reports_only_that_partition(self, capsys):
        # the named SU(5) pairs belong to the default run only
        code, out, _ = run(capsys, "verify", "conjecture", "--partition", "3", "--samples", "2")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 16
        assert all(r["m"] == 4 and r["partition"] == [3] for r in records)
        code, out, err = run(capsys, "verify", "conjecture", "--partition", "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "nothing to check" in err

    def test_conjecture_refuses_a_capped_lift_before_any_coefficient_matrix(
        self, monkeypatch, capsys
    ):
        def forbidden(*args):
            raise AssertionError("a coefficient matrix was built before the refusal")

        monkeypatch.setattr(verification, "coefficient_matrix", forbidden)
        # the GT array of SU(4) {2,1} fits; the lift's working array alone does not
        monkeypatch.setattr(sunrep, "ENTRY_CAP", sunrep.LIFT_BATCH_ENTRIES)
        code, out, err = run(capsys, "verify", "conjecture")
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "working entries, over the entry cap 32768" in err

    def test_conjecture_refuses_a_capped_lift_before_checking_any_pair(
        self, monkeypatch, capsys
    ):
        # SU(12) {2,1} has dimension 572; its 48,400 default pairs are never listed
        def forbidden(*args):
            raise AssertionError("a selector pair was checked before the refusal")

        monkeypatch.setattr(verification, "_check_pair", forbidden)
        code, out, err = run(capsys, "verify", "conjecture", "--m", "12")
        assert code == EXIT_RESOURCE
        assert out == ""
        # 25 samples x 440 rows x 440 columns, and one element's 572 x 440 working array
        message = "takes 4840000 returned + 251680 working entries, over the entry cap 4194304"
        assert message in err

    def test_conjecture_refuses_the_tensor_space_before_drawing(self, monkeypatch, capsys):
        # 11^6 amplitudes: refused before any sample is drawn or lifted
        def forbidden(*args):
            raise AssertionError("a sample was drawn or lifted before the refusal")

        monkeypatch.setattr(verification, "haar_random_unitaries", forbidden)
        monkeypatch.setattr(verification, "lift_batch", forbidden)
        argv = ("verify", "conjecture", "--m", "11", "--partition", "6", "--samples", "1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == "resource limit: tensor space 11^6 = 1771561 amplitudes exceeds cap 1000000\n"

    def test_conjecture_m4_is_the_default_run(self, capsys):
        # --m 4 is the bare run, the two named SU(5) pairs included
        code, bare, _ = run(capsys, "verify", "conjecture")
        assert code == EXIT_OK
        assert [json.loads(line)["m"] for line in bare.splitlines()][-2:] == [5, 5]
        assert run(capsys, "verify", "conjecture", "--m", "4") == (EXIT_OK, bare, "")

    def test_kostant_passes_past_d_512(self, capsys):
        # SU(6) irreps of partitions of 6 reach d = 1134; no variable is needed
        code, out, _ = run(capsys, "verify", "kostant", "--m", "6")
        assert code == EXIT_OK
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == 11 and all(r["pass"] for r in reports)
        assert {r["m"] for r in reports} == {6}

    def test_kostant_m8_is_refused_before_any_rotation_table(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a rotation table was built before the refusal")

        monkeypatch.setattr(sunrep, "givens_factors", forbidden)
        tables = sunrep.rotation_tables.cache_info()
        code, out, err = run(capsys, "verify", "kostant", "--m", "8")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert sunrep.rotation_tables.cache_info() == tables  # not even looked up
        assert "takes 1008000 returned + 16680600 working entries, over the entry cap" in err
        # drop the GT arrays of SU(8) that the suite built before the refusal
        for cached in (sunrep.gt_array, sunrep.occupations, sunrep._weight_index):
            cached.cache_clear()

    def test_kostant_m10_is_refused_at_its_first_gt_array(self, capsys):
        code, out, err = run(capsys, "verify", "kostant", "--m", "10")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert "the GT array of SU(10)(10, 0, 0, 0, 0, 0, 0, 0, 0, 0) holds 92378 x 55" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "2", "--format", "csv"
        )
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header.startswith("suite,m,partition")

    def test_pretty_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "2", "--format", "pretty"
        )
        assert code == EXIT_OK
        assert out.startswith("[PASS] kostant")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "reports.jsonl"
        code, out, _ = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "2", "--out", str(path)
        )
        assert code == EXIT_OK
        assert out == ""
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_non_finite_report_fails_closed(self, monkeypatch, capsys):
        # the suite's last report gets a NaN residual and an infinite detail,
        # yet claims to pass
        real = verification.kostant_suite

        def broken(**kwargs):
            *good, last = real(**kwargs)
            details = dict(last.details, duality_residual=math.inf)
            return good + [dataclasses.replace(last, residual=math.nan, passed=True, details=details)]

        monkeypatch.setitem(verification.SUITES, "kostant", broken)
        argv = ("verify", "kostant", "--m", "2", "--samples", "2")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_FAIL
        first, last = [json.loads(line) for line in out.splitlines()]
        assert first["pass"] and "non_finite" not in first
        assert last["pass"] is False and last["non_finite"] is True
        assert list(last)[-1] == "non_finite"
        assert last["residual"] is None and last["details"]["duality_residual"] is None
        assert last["details"]["samples"] == 2
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_FAIL
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["pass"] for row in rows] == ["True", "False"]
        assert rows[1]["residual"] == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ("kostant", "--m", "2"),
            ("corollary4", "--m", "4"),
            ("littlewood",),
            ("conjecture", "--m", "4", "--partition", "2,1", "--rows", "2,3,4", "--cols", "1,3,4"),
        ],
        ids=lambda flags: flags[0],
    )
    def test_nan_immanant_reaches_the_report(self, monkeypatch, capsys, flags):
        # a NaN from the character sum must survive the worst-over-samples
        # maximum, so every report fails closed
        monkeypatch.setattr(
            verification, "immanant_batch", lambda p, a: np.full(len(a), complex(math.nan, 0.0))
        )
        code, out, _ = run(capsys, "verify", *flags, "--samples", "2")
        assert code == EXIT_FAIL
        for rec in map(json.loads, out.splitlines()):
            assert rec["non_finite"] is True and rec["pass"] is False
            assert rec["residual"] is None

    def test_nan_lift_reaches_the_littlewood_residual(self, monkeypatch, capsys):
        # a NaN (3,1) lift makes the D-function form NaN; the headline
        # residual and the form agreement must not drop it in a maximum
        real = verification.lift_batch

        def broken(labels, elements, cols=None, rows=None):
            lifts = real(labels, elements, cols, rows)
            return [
                np.full_like(lifted, math.nan) if label.row == (3, 1, 0, 0) else lifted
                for label, lifted in zip(labels, lifts)
            ]

        monkeypatch.setattr(verification, "lift_batch", broken)
        code, out, _ = run(capsys, "verify", "littlewood", "--samples", "2")
        assert code == EXIT_FAIL
        for rec in map(json.loads, out.splitlines()):
            assert rec["non_finite"] is True and rec["pass"] is False
            assert rec["residual"] is None
            assert rec["details"]["dfunction_residual"] is None
            assert rec["details"]["form_agreement"] is None
            assert rec["details"]["immanant_residual"] < 1e-12

    @pytest.mark.parametrize("suite", ["plethysm-su2", "plethysm-su3"])
    def test_nan_coefficient_reaches_the_plethysm_residual(self, monkeypatch, capsys, suite):
        # one fitted coefficient is NaN: the worst coefficient gap is NaN
        real = verification.fit_decomposition

        def broken(problem, **kwargs):
            result = real(problem, **kwargs)
            (cand, _), *rest = result.coefficients
            return dataclasses.replace(result, coefficients=[(cand, complex(math.nan))] + rest)

        monkeypatch.setattr(verification, "fit_decomposition", broken)
        code, out, _ = run(capsys, "verify", suite)
        assert code == EXIT_FAIL
        [rec] = map(json.loads, out.splitlines())
        assert rec["non_finite"] is True and rec["pass"] is False
        assert rec["residual"] is None

    def test_reports_are_built_only_in_verification(self):
        for module in (dualspace, plethysm):
            assert not hasattr(module, "VerificationReport"), module.__name__

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_unwritable_output_file(self, capsys, tmp_path):
        path = tmp_path / "no" / "x.jsonl"
        code, out, err = run(capsys, "verify", "plethysm-su2", "--out", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "kostant", "--m", "2", "--samples", "2", "--out", "/dev/full"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot write /dev/full") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_stdout_write_is_usage_error(self):
        # A separate process, so that the interpreter's exit-time flush of
        # stdout is covered too.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(immdfun.__file__)))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "immdfun.cli", "verify", "kostant", "--m", "2", "--samples", "2"],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: cannot write stdout") and proc.stderr.count("\n") == 1

    # Each suite with every flag it reads, and the same run as a direct call.
    @pytest.mark.parametrize(
        "flags, suite, kwargs",
        [
            pytest.param(
                ("--m", "2", "--samples", "2", "--seed", "3", "--tol", "1e-8"),
                verification.kostant_suite,
                dict(m=2, samples=2, seed=3, tol=1e-8),
                id="kostant",
            ),
            pytest.param(
                ("--m", "4", "--samples", "2", "--seed", "3", "--tol", "1e-8"),
                verification.corollary4_suite,
                dict(m=4, samples=2, seed=3, tol=1e-8),
                id="corollary4",
            ),
            pytest.param(
                ("--samples", "2", "--seed", "3", "--tol", "1e-8"),
                verification.littlewood_suite,
                dict(samples=2, seed=3, tol=1e-8),
                id="littlewood",
            ),
            pytest.param(
                (
                    "--m", "4", "--partition", "2,1", "--rows", "2,3,4", "--cols", "1,3,4",
                    "--samples", "2", "--seed", "3", "--tol", "1e-7",
                ),
                verification.conjecture_suite,
                dict(
                    m=4,
                    partition=Partition(2, 1),
                    rows=(2, 3, 4),
                    cols=(1, 3, 4),
                    samples=2,
                    seed=3,
                    tol=1e-7,
                ),
                id="conjecture",
            ),
            pytest.param(
                ("--samples", "40", "--seed", "3", "--tol", "1e-7"),
                verification.plethysm_su2_suite,
                dict(samples=40, seed=3, tol=1e-7),
                id="plethysm-su2",
            ),
            pytest.param(
                ("--samples", "55", "--seed", "3", "--tol", "1e-6"),
                verification.plethysm_su3_suite,
                dict(samples=55, seed=3, tol=1e-6),
                id="plethysm-su3",
            ),
        ],
    )
    def test_flags_map_to_suite_kwargs(self, request, capsys, flags, suite, kwargs):
        name = request.node.callspec.id
        assert verification.SUITES[name] is suite
        _, out, _ = run(capsys, "verify", name, *flags)
        expected = "".join(report.to_json_line() + "\n" for report in suite(**kwargs))
        assert out == expected


class TestDumpCommand:
    def test_identity_diagonal(self, capsys):
        code, out, _ = run(capsys, "dump-dfunctions", "--row", "2,1,0", "--identity", "3")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 64
        ones = [r for r in records if r["value"] == [1.0, 0.0]]
        assert len(ones) == 8 and all(r["r"] == r["t"] for r in ones)

    def test_fundamental_matches_matrix(self, capsys):
        code, out, _ = run(
            capsys, "dump-dfunctions", "--partition", "1", "--m", "3", "--haar", "3", "--seed", "5"
        )
        assert code == EXIT_OK
        from _single import haar_random_unitary

        u = haar_random_unitary(3, 5).matrices[0]
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 9
        top = records[0]
        assert top["value"][0] == pytest.approx(u[0, 0].real, abs=1e-12)

    def test_euler_middle_entry(self, capsys):
        beta = 0.8
        code, out, _ = run(
            capsys, "dump-dfunctions", "--row", "2,0", "--euler", f"0.0,{beta},0.0"
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        middle = [r for r in records if r["r"] == r["t"] == [[2, 0], [1]]]
        assert middle[0]["value"][0] == pytest.approx(math.cos(beta), abs=1e-12)

    def test_lines_are_json_dumps_of_their_records(self, capsys, tmp_path):
        # The line format is a contract: compact JSON, keys in this order,
        # floats as json.dumps writes them (shortest round-trip repr)
        cases = [
            ("--row", "2,1,0", "--identity", "3"),  # 1.0 and 0.0
            ("--row", "2,1,0", "--matrix-file", str(_minus_one_file(tmp_path))),  # negatives
            ("--row", "1,1,1", "--haar", "3"),  # d = 1
            ("--row", "0,0,0", "--haar", "3"),
            ("--row", "3,0", "--euler", "0.3,0.8,1.1"),  # SU(2)
            ("--row", "6,3,0", "--haar", "3"),  # exponent forms at the default seed
        ]
        values = []
        for argv in cases:
            code, out, _ = run(capsys, "dump-dfunctions", *argv)
            assert code == EXIT_OK
            lines = out.splitlines(keepends=True)
            assert lines
            for line in lines:
                rec = json.loads(line)
                record = {"irrep": rec["irrep"], "r": rec["r"], "t": rec["t"], "value": rec["value"]}
                assert line == json.dumps(record, separators=(",", ":")) + "\n", (argv, line)
                values.append(line.rpartition('"value":')[2])
        assert any("e" in value for value in values)

    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        argv = ("dump-dfunctions", "--row", "6,3,0", "--haar", "3")
        _, out, _ = run(capsys, *argv)
        path = tmp_path / "dump.jsonl"
        code, file_out, err = run(capsys, *argv, "--out", str(path))
        assert (code, file_out, err) == (EXIT_OK, "", "")
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("row", ["2,1,0", "6,3,0"])  # fails on closing, or mid-stream
    def test_failed_write_is_usage_error(self, capsys, row):
        code, out, err = run(
            capsys, "dump-dfunctions", "--row", row, "--haar", "3", "--out", "/dev/full"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_overflowing_matrix_is_one_usage_error(self, capsys, tmp_path):
        # det and U^H U overflow: one error line, and no numpy warning before it
        path = tmp_path / "big.json"
        path.write_text(json.dumps([[[1e308, 0]] * 2] * 2))
        code, out, err = run(capsys, "dump-dfunctions", "--row", "1,0", "--matrix-file", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_capped_dump_writes_no_output_file(self, capsys, tmp_path):
        path = tmp_path / "dump.jsonl"
        code, _, _ = run(
            capsys, "dump-dfunctions", "--row", "40,20,0", "--identity", "3", "--out", str(path)
        )
        assert code == EXIT_RESOURCE
        assert not path.exists()

    def test_dimension_cap_resource_error(self, capsys, monkeypatch):
        # (40, 20, 0) has d = 9261: its whole lift takes 2 x 9261^2 entries
        code, _, err = run(capsys, "dump-dfunctions", "--row", "40,20,0", "--identity", "3")
        assert code == EXIT_RESOURCE
        assert "takes 85766121 returned + 85766121 working entries, over the entry cap" in err
        # (16, 8, 0) has d = 729, past the old d = 512 cap: 2 x 729^2 entries fit
        code2, out, _ = run(capsys, "dump-dfunctions", "--row", "16,8,0", "--identity", "3")
        assert code2 == EXIT_OK and len(out.splitlines()) == 729**2
        monkeypatch.setattr(sunrep, "ENTRY_CAP", 2 * 729**2 - 1)
        code3, out, err = run(capsys, "dump-dfunctions", "--row", "16,8,0", "--identity", "3")
        assert (code3, out) == (EXIT_RESOURCE, "")
        assert "takes 531441 returned + 531441 working entries, over the entry cap 1062881" in err


class TestRejectedFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "kostant", "--samples", "0"), "samples must be >= 1"),
            (("verify", "kostant", "--tol", "-1"), "tolerance must be positive"),
            (
                ("dump-dfunctions", "--row", "2,1,0", "--identity", "3", "--tol", "0"),
                "tolerance must be positive",
            ),
            (
                ("verify", "conjecture", "--rows", "1,1,2", "--cols", "1,2,3"),
                "row indices must be distinct",
            ),
            (("verify", "littlewood", "--partition", "x"), "expected comma-separated integers"),
            (("verify", "littlewood", "--m", "7"), "--m does not apply to verify littlewood"),
            (("verify", "plethysm-su2", "--m", "3"), "--m does not apply"),
            (("verify", "littlewood", "--partition", "5"), "--partition does not apply to"),
            (("verify", "kostant", "--rows", "1,2", "--cols", "1,2"), "--rows does not apply to"),
            (("verify", "corollary4", "--cols", "1,2"), "--rows and --cols must be supplied"),
            (("verify", "conjecture", "--rows", "1,2,3"), "--rows and --cols must be supplied"),
            (("verify", "kostant", "--tol", "nan"), "tolerance must be positive and finite"),
            (
                ("dump-dfunctions", "--row", "2,1,0", "--identity", "3", "--tol", "inf"),
                "tolerance must be positive and finite",
            ),
            (("verify", "corollary4", "--m", "2"), "nothing to check"),
            (("verify", "conjecture", "--m", "2", "--partition", "3"), "nothing to check"),
            (("verify", "kostant", "--m", "0"), "--m must be >= 2, got 0"),
            (("verify", "conjecture", "--m", "1"), "--m must be >= 2, got 1"),
            (
                ("verify", "kostant", "--m", "2", "--samples", "1", "--seed", "-1"),
                "--seed must be >= 0, got -1",
            ),
            (
                ("immanant", "--partition", "1,1,1", "--haar", "3", "--seed", "-5"),
                "--seed must be >= 0, got -5",
            ),
            (
                ("dump-dfunctions", "--row", "1,0", "--haar", "2", "--seed", "-1"),
                "--seed must be >= 0, got -1",
            ),
            (
                ("immanant", "--partition", "1", "--identity", "-1"),
                "--identity must be >= 1, got -1",
            ),
            (
                ("dump-dfunctions", "--row", "1,0", "--identity", "-2"),
                "--identity must be >= 1, got -2",
            ),
            (
                ("dump-dfunctions", "--row", "2,1,0", "--partition", "3", "--m", "3",
                 "--identity", "3"),
                "supply either --row or both --partition and --m",
            ),
            (
                ("dump-dfunctions", "--row", "2,1,0", "--m", "3", "--identity", "3"),
                "supply either --row or both --partition and --m",
            ),
            (
                ("dump-dfunctions", "--partition", "3", "--identity", "3"),
                "supply either --row or both --partition and --m",
            ),
            (("immanant", "--partition", "1", "--haar", "1"), "--haar must be >= 2, got 1"),
            (("dump-dfunctions", "--row", "1,0", "--haar", "0"), "--haar must be >= 2, got 0"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    # every suite against every verify flag that its signature does not name
    @pytest.mark.parametrize(
        "suite, flags",
        [
            pytest.param(name, flags, id=f"{name}{flags[0]}")
            for name, suite in verification.SUITES.items()
            for flags in (
                ("--m", "4"),
                ("--partition", "2,1"),
                ("--rows", "1,2,3", "--cols", "1,2,3"),
                ("--samples", "2"),
                ("--tol", "1e-7"),
            )
            if flags[0][2:] not in inspect.signature(suite).parameters
        ],
    )
    def test_a_flag_the_suite_does_not_name(self, capsys, suite, flags):
        code, out, err = run(capsys, "verify", suite, *flags)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {flags[0]} does not apply to verify {suite}\n"

    def test_nothing_to_check_writes_no_output_file(self, capsys, tmp_path):
        path = tmp_path / "reports.jsonl"
        code, out, err = run(capsys, "verify", "corollary4", "--m", "2", "--out", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()


class TestSideRefusedBeforeBuilding:
    """A side named by --haar or --identity that the command cannot use is
    refused before the matrix is drawn or allocated, with the message a
    built matrix of that side gets."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("dump-dfunctions", "--row", "2,1,0", "--haar", "1500"), "matrix side 1500 != m = 3"),
            (("dump-dfunctions", "--row", "2,1,0", "--identity", "1500"), "matrix side 1500 != m = 3"),
            (
                ("immanant", "--partition", "2", "--identity", "8000"),
                "partition {2} is not a partition of the matrix side 8000",
            ),
            (
                ("immanant", "--partition", "2", "--haar", "8000"),
                "partition {2} is not a partition of the matrix side 8000",
            ),
            (
                ("immanant", "--partition", "2", "--haar", "5", "--rows", "1,6", "--cols", "1,2"),
                "selector SubmatrixSelector(rows=(1, 6), cols=(1, 2)) out of range for a 5x5 matrix",
            ),
            (
                ("immanant", "--partition", "2,1", "--identity", "9000", "--rows", "1,2",
                 "--cols", "1,2"),
                "partition {2,1} is not a partition of the matrix side 2",
            ),
        ],
    )
    def test_mismatch_builds_nothing(self, capsys, monkeypatch, argv, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("the matrix was built before the refusal")

        monkeypatch.setattr(cli, "haar_random_unitaries", forbidden)
        monkeypatch.setattr(cli.np, "eye", forbidden)
        assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_cap_builds_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.np, "eye", lambda *args, **kwargs: 1 / 0)
        code, out, err = run(capsys, "immanant", "--partition", "12", "--identity", "12")
        assert (code, out) == (EXIT_RESOURCE, "") and "capped" in err

    @pytest.mark.parametrize("flag", ["--identity", "--haar"])
    def test_side_over_the_entry_cap_builds_nothing(self, capsys, monkeypatch, flag):
        # the selector passes every check, so only the matrix size is left to refuse
        def forbidden(*args, **kwargs):
            raise AssertionError("the matrix was built before the refusal")

        monkeypatch.setattr(cli, "haar_random_unitaries", forbidden)
        monkeypatch.setattr(cli.np, "eye", forbidden)
        got = run(capsys, "immanant", "--partition", "2", flag, "2049", "--rows", "1,2", "--cols", "1,2")
        message = "a 2049 x 2049 matrix holds 4198401 entries, over the entry cap 4194304"
        assert got == (EXIT_RESOURCE, "", f"resource limit: {message}\n")

    @pytest.mark.parametrize(
        "argv, side, message",
        [
            (("dump-dfunctions", "--row", "2,1,0"), 4, "matrix side 4 != m = 3"),
            (("immanant", "--partition", "2"), 3, "partition {2} is not a partition of the matrix side 3"),
            (
                ("immanant", "--partition", "2", "--rows", "1,6", "--cols", "1,2"),
                5,
                "selector SubmatrixSelector(rows=(1, 6), cols=(1, 2)) out of range for a 5x5 matrix",
            ),
        ],
    )
    def test_a_built_matrix_gets_the_same_message(self, capsys, tmp_path, argv, side, message):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps([[[float(i == j), 0.0] for j in range(side)] for i in range(side)]))
        got = run(capsys, *argv, "--matrix-file", str(path))
        assert got == (EXIT_USAGE, "", f"error: {message}\n")


class TestOneParserPerProcess:
    def test_commands_in_one_process_match_separate_processes(self, capsys):
        argvs = [
            ("immanant", "--partition", "2,1", "--haar", "3", "--check-duality"),
            ("verify", "kostant", "--m", "2", "--samples", "2"),
            ("dump-dfunctions", "--row", "2,1,0", "--identity", "4"),
            ("immanant", "--partition", "2", "--identity", "2", "--format", "pretty"),
        ]
        cli.build_parser.cache_clear()
        together = [run(capsys, *argv) for argv in argvs]
        assert cli.build_parser.cache_info().misses == 1
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(immdfun.__file__)))
        for argv, got in zip(argvs, together):
            proc = subprocess.run(
                [sys.executable, "-m", "immdfun.cli", *argv], capture_output=True, text=True, env=env
            )
            assert got == (proc.returncode, proc.stdout, proc.stderr)
        assert [code for code, _, _ in together] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]


def _minus_one_file(tmp_path):
    """diag(-1, -1, 1) as a matrix file: two eigenvalues at -1."""
    path = tmp_path / "minus_one.json"
    diag = [[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]
    path.write_text(
        json.dumps([[diag[i] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)])
    )
    return path


class TestMinusOneEigenvalues:
    def test_dump_lifts_exactly(self, capsys, tmp_path):
        path = _minus_one_file(tmp_path)
        code, out, _ = run(capsys, "dump-dfunctions", "--row", "2,1,0", "--matrix-file", str(path))
        assert code == EXIT_OK
        values = [json.loads(line)["value"] for line in out.strip().splitlines()]
        got = np.array([complex(re, im) for re, im in values]).reshape(8, 8)

        from immdfun.sunrep import SUIrrepLabel
        from _single import from_matrix, lift

        root = from_matrix(np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 3, -2 * np.pi / 3]))))
        cube = np.linalg.matrix_power(lift(SUIrrepLabel(3, (2, 1, 0)), root), 3)
        assert np.abs(got - cube).max() < 1e-12


class TestMatrixIO:
    def test_parse_error_type(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MatrixParseError):
            load_matrix_file(str(path))

    def test_entries_must_be_pairs(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text("[[1.0, 2.0]]")
        with pytest.raises(MatrixParseError):
            load_matrix_file(str(path))

    @pytest.mark.parametrize(
        "content",
        [
            "[[[1, 0], [0, 0]], [[0, 0]]]",
            "[[[1, 0, 7]]]",
            "[[[true, false]]]",
            "[[[1" + "0" * 400 + ", 0]]]",
        ],
        ids=["ragged", "triple", "boolean", "overflow"],
    )
    def test_malformed_entries_are_parse_errors(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(MatrixParseError):
            load_matrix_file(str(path))

    @pytest.mark.parametrize(
        "argv",
        [["immanant", "--partition", "2"], ["dump-dfunctions", "--row", "1,0"]],
        ids=["immanant", "dump-dfunctions"],
    )
    def test_ragged_file_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "ragged.json"
        path.write_text("[[[1, 0], [0, 0]], [[0, 0]]]")
        code, out, err = run(capsys, *argv, "--matrix-file", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "equal length" in err
